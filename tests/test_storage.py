"""Tests for the columnar storage substrate."""

import struct
import zlib

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import (
    ColumnBlock,
    ColumnSchema,
    RowGroup,
    SegmentFile,
    SegmentFileWriter,
    SqlType,
    available_codecs,
    compress,
    decompress,
)
from repro.storage.column import PROBE_ROWS, SAMPLE_ROWS
from repro.storage.compression import shuffle_compress, shuffle_decompress
from repro.storage.encoding import (
    decode_dictionary,
    decode_values,
    encode_dictionary,
    encode_values,
    pack_validity,
    unpack_validity,
)
from repro.vertica import VerticaCluster
from repro.vertica.segmentation import hash64
from tests.conftest import OnDisk

STATUSES = np.array(["open", "paid", "shipped", "void"], dtype=object)


def offsets_layout_reference(values) -> bytes:
    """The VARCHAR offsets layout as first written, one row at a time."""
    encoded = [("" if v is None else str(v)).encode("utf-8") for v in values]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    for i, blob in enumerate(encoded):
        offsets[i + 1] = offsets[i] + len(blob)
    return struct.pack("<q", len(encoded)) + offsets.tobytes() + b"".join(encoded)


def bits(values: np.ndarray) -> bytes:
    """Bytes of a decoded column, so that NaN and -0.0 compare exactly."""
    if values.dtype == object:
        return repr(values.tolist()).encode()
    return values.tobytes()


class TestSqlType:
    @pytest.mark.parametrize("name,expected", [
        ("INT", SqlType.INTEGER),
        ("integer", SqlType.INTEGER),
        ("BIGINT", SqlType.INTEGER),
        ("FLOAT", SqlType.FLOAT),
        ("double precision", SqlType.FLOAT),
        ("DOUBLE   PRECISION", SqlType.FLOAT),
        ("VARCHAR", SqlType.VARCHAR),
        ("text", SqlType.VARCHAR),
        ("BOOLEAN", SqlType.BOOLEAN),
    ])
    def test_sql_name_aliases(self, name, expected):
        assert SqlType.from_sql_name(name) is expected

    def test_unknown_sql_name(self):
        with pytest.raises(StorageError):
            SqlType.from_sql_name("BLOB")

    @pytest.mark.parametrize("dtype,expected", [
        (np.int64, SqlType.INTEGER),
        (np.int32, SqlType.INTEGER),
        (np.float64, SqlType.FLOAT),
        (np.float32, SqlType.FLOAT),
        (np.bool_, SqlType.BOOLEAN),
        (object, SqlType.VARCHAR),
    ])
    def test_from_numpy(self, dtype, expected):
        assert SqlType.from_numpy(np.dtype(dtype)) is expected

    def test_fixed_widths(self):
        assert SqlType.INTEGER.fixed_width == 8
        assert SqlType.FLOAT.fixed_width == 8
        assert SqlType.BOOLEAN.fixed_width == 1
        assert SqlType.VARCHAR.fixed_width is None

    def test_column_schema_requires_name(self):
        with pytest.raises(StorageError):
            ColumnSchema("", SqlType.INTEGER)


class TestEncoding:
    def test_integer_roundtrip(self):
        values = np.array([1, -5, 2**40, 0], dtype=np.int64)
        buffer = encode_values(values, SqlType.INTEGER)
        assert np.array_equal(decode_values(buffer, SqlType.INTEGER, 4), values)

    def test_float_roundtrip_with_special_values(self):
        values = np.array([1.5, -0.0, np.inf, np.nan])
        decoded = decode_values(
            encode_values(values, SqlType.FLOAT), SqlType.FLOAT, 4
        )
        assert decoded[0] == 1.5
        assert np.isinf(decoded[2])
        assert np.isnan(decoded[3])

    def test_boolean_roundtrip(self):
        values = np.array([True, False, True])
        decoded = decode_values(
            encode_values(values, SqlType.BOOLEAN), SqlType.BOOLEAN, 3
        )
        assert np.array_equal(decoded, values)

    def test_varchar_roundtrip_unicode(self):
        values = np.array(["hello", "", "naïve 日本語", "tab\tnewline\n"], dtype=object)
        decoded = decode_values(
            encode_values(values, SqlType.VARCHAR), SqlType.VARCHAR, 4
        )
        assert list(decoded) == list(values)

    @pytest.mark.parametrize("values", [
        ["é", "", "ab", "日本", "", "z"],      # non-ASCII beside ASCII and empties
        ["", "", ""],                          # only empty strings
        ["only"],                              # a single value
        ["ü"],                                 # a single non-ASCII value
        [],                                    # no values
    ])
    def test_varchar_roundtrip_shapes(self, values):
        array = np.array(values, dtype=object)
        decoded = decode_values(encode_values(array, SqlType.VARCHAR),
                                SqlType.VARCHAR, len(values))
        assert decoded.dtype == object and decoded.shape == (len(values),)
        assert decoded.tolist() == values

    def test_varchar_payload_length_mismatch_rejected(self):
        buffer = encode_values(np.array(["ab", "c"], dtype=object), SqlType.VARCHAR)
        with pytest.raises(StorageError):
            decode_values(buffer[:-1], SqlType.VARCHAR, 2)

    def test_varchar_none_becomes_empty(self):
        values = np.array(["a", None], dtype=object)
        decoded = decode_values(
            encode_values(values, SqlType.VARCHAR), SqlType.VARCHAR, 2
        )
        assert list(decoded) == ["a", ""]

    def test_wrong_count_rejected(self):
        buffer = encode_values(np.arange(3), SqlType.INTEGER)
        with pytest.raises(StorageError):
            decode_values(buffer, SqlType.INTEGER, 5)

    def test_varchar_count_mismatch_rejected(self):
        buffer = encode_values(np.array(["a", "b"], dtype=object), SqlType.VARCHAR)
        with pytest.raises(StorageError):
            decode_values(buffer, SqlType.VARCHAR, 3)

    def test_2d_values_rejected(self):
        with pytest.raises(StorageError):
            encode_values(np.ones((2, 2)), SqlType.FLOAT)

    def test_validity_all_valid_is_empty(self):
        assert pack_validity(np.array([True, True]), 2) == b""
        assert pack_validity(None, 5) == b""

    def test_validity_roundtrip(self):
        mask = np.array([True, False, True, True, False, False, True, True, False])
        bitmap = pack_validity(mask, 9)
        assert bitmap != b""
        assert np.array_equal(unpack_validity(bitmap, 9), mask)

    def test_validity_shape_mismatch(self):
        with pytest.raises(StorageError):
            pack_validity(np.array([True]), 2)


class TestVarcharLayouts:
    def test_offsets_layout_bytes_are_pinned(self):
        buffer = encode_values(np.array(["ab", "", "é"], dtype=object),
                               SqlType.VARCHAR)
        assert buffer == bytes.fromhex(
            "0300000000000000"                      # row count
            "0000000000000000" "0200000000000000"   # offsets 0, 2,
            "0200000000000000" "0400000000000000"   # 2, 4
            "6162c3a9")                             # "ab" + "é" in UTF-8

    @pytest.mark.parametrize("values", [
        [],
        ["x"],
        [None, "a", None],
        ["é", "", "ab", "日本", "", "z"],
        [f"row{i}" for i in range(3000)],
        list(STATUSES[np.arange(2000) % 4]),
        [1, 2.5, "mixed"],
    ])
    def test_offsets_layout_matches_the_row_loop(self, values):
        array = np.array(values, dtype=object)
        assert encode_values(array, SqlType.VARCHAR) == \
            offsets_layout_reference(array)

    @pytest.mark.parametrize("values", [
        list(STATUSES[np.arange(2000) % 4]),
        ["same"] * 50,
        ["é", "", "日本", None, "tab\t"] * 40,
        [f"v{i % 300}" for i in range(5000)],       # two-byte codes
    ])
    def test_dictionary_decodes_like_the_offsets_layout(self, values):
        array = np.array(values, dtype=object)
        encoded = encode_dictionary(array)
        assert encoded is not None
        assert len(encoded) < len(encode_values(array, SqlType.VARCHAR))
        decoded = decode_dictionary(encoded, len(values))
        expected = decode_values(encode_values(array, SqlType.VARCHAR),
                                 SqlType.VARCHAR, len(values))
        assert decoded.dtype == object and decoded.shape == (len(values),)
        assert decoded.tolist() == expected.tolist()

    @pytest.mark.parametrize("values", [
        [],
        ["only"],
        [f"unique{i}" for i in range(1000)],
    ])
    def test_dictionary_declined_when_not_smaller(self, values):
        assert encode_dictionary(np.array(values, dtype=object)) is None

    def test_dictionary_code_out_of_range_rejected(self):
        encoded = bytearray(encode_dictionary(STATUSES[np.arange(40) % 4]))
        encoded[-1] = 4   # four distinct values: codes 0..3
        with pytest.raises(StorageError, match="out of range"):
            decode_dictionary(bytes(encoded), 40)

    @pytest.mark.parametrize("cut", [0, 8, 20, -1])
    def test_dictionary_truncation_rejected(self, cut):
        encoded = encode_dictionary(STATUSES[np.arange(40) % 4])
        with pytest.raises(StorageError):
            decode_dictionary(encoded[:cut], 40)

    def test_dictionary_count_mismatch_rejected(self):
        encoded = encode_dictionary(STATUSES[np.arange(40) % 4])
        with pytest.raises(StorageError):
            decode_dictionary(encoded, 41)


class TestCompression:
    def test_builtin_codecs_registered(self):
        assert {"none", "zlib", "rle"} <= set(available_codecs())

    @pytest.mark.parametrize("codec", ["none", "zlib", "rle"])
    def test_roundtrip(self, codec):
        data = np.arange(1000, dtype=np.int64).tobytes()
        assert decompress(compress(data, codec), codec) == data

    def test_rle_compresses_runs(self):
        data = np.repeat(np.arange(10, dtype=np.int64), 1000).tobytes()
        compressed = compress(data, "rle")
        assert len(compressed) < len(data) / 100

    def test_rle_handles_unaligned_data(self):
        data = b"hello world"  # not a multiple of 8 bytes
        assert decompress(compress(data, "rle"), "rle") == data

    def test_rle_empty(self):
        assert decompress(compress(b"", "rle"), "rle") == b""

    def test_unknown_codec(self):
        with pytest.raises(StorageError):
            compress(b"x", "lz77")
        with pytest.raises(StorageError):
            decompress(b"x", "lz77")

    def test_zlib_actually_compresses(self):
        data = b"a" * 10_000
        assert len(compress(data, "zlib")) < 200

    def test_corrupt_zlib_payload_is_a_storage_error(self):
        with pytest.raises(StorageError, match="corrupt zlib"):
            decompress(b"not a zlib stream", "zlib")

    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 8 * 1025, 8 * 1025 + 3])
    def test_shuffle_roundtrip_any_length(self, length):
        data = np.random.default_rng(length).bytes(length)
        for mask in (0x00, 0xFF, 0xC0, 0x01, 0x5A):
            restored = shuffle_decompress(shuffle_compress(data, mask))
            assert restored.tobytes() == data
            assert restored.flags.writeable   # adopted by decode_values as is

    @pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 4095, 4096, 4097])
    @pytest.mark.parametrize("tail", [0, 1, 7])
    def test_shuffle_roundtrip_around_sample_and_probe(self, rows, tail):
        data = np.random.default_rng([rows, tail]).normal(size=rows).tobytes()
        data += bytes(range(tail))
        for mask in (0x00, 0xFF, 0xC0, 0x3F):
            restored = shuffle_decompress(shuffle_compress(data, mask))
            assert restored.tobytes() == data
            assert restored.flags.writeable

    def test_shuffle_groups_bytes_into_planes(self):
        data = np.arange(3, dtype=">u8").tobytes() + b"xy"   # big-endian words
        planes = bytes(21) + bytes([0, 1, 2])    # byte 0 of every word first
        header = struct.Struct("<BI")
        deflated = shuffle_compress(data, 0xFF)
        assert deflated[:header.size] == header.pack(0xFF, len(data))
        assert zlib.decompress(deflated[header.size:]) == planes + b"xy"
        stored = shuffle_compress(data, 0x00)   # every plane verbatim
        assert stored[:header.size] == header.pack(0x00, len(data))
        assert stored[header.size:header.size + 24] == planes
        assert zlib.decompress(stored[header.size + 24:]) == b"xy"
        # Plane 7 (the low byte of each big-endian word) deflated, the rest
        # stored in plane order.
        mixed = shuffle_compress(data, 0x80)
        assert mixed[header.size:header.size + 21] == planes[:21]
        assert zlib.decompress(mixed[header.size + 21:]) == planes[21:] + b"xy"

    def test_shuffle_without_bytes_to_deflate_has_no_stream(self):
        data = np.arange(4, dtype=np.int64).tobytes()
        assert len(shuffle_compress(data, 0x00)) == 5 + len(data)
        assert shuffle_decompress(shuffle_compress(b"", 0x00)).size == 0

    def test_shuffle_shrinks_smooth_doubles(self):
        data = np.random.default_rng(0).normal(size=4096).tobytes()
        assert len(shuffle_compress(data, 0xC0)) < len(compress(data, "zlib"))


class TestColumnBlock:
    def test_roundtrip_float(self):
        values = np.linspace(-5, 5, 100)
        block = ColumnBlock.from_values(values, SqlType.FLOAT)
        assert np.allclose(block.values(), values)
        assert block.row_count == 100

    def test_roundtrip_varchar(self):
        values = np.array(["x", "yy", "zzz"], dtype=object)
        block = ColumnBlock.from_values(values, SqlType.VARCHAR)
        assert list(block.values()) == ["x", "yy", "zzz"]

    def test_zone_map(self):
        block = ColumnBlock.from_values(np.array([3.0, 7.0, 5.0]), SqlType.FLOAT)
        assert block.min_value == 3.0
        assert block.max_value == 7.0
        assert block.might_contain(4.0, 6.0)
        assert not block.might_contain(8.0, None)
        assert not block.might_contain(None, 2.0)

    def test_zone_map_absent_for_varchar(self):
        block = ColumnBlock.from_values(np.array(["a"], dtype=object), SqlType.VARCHAR)
        assert block.min_value is None
        assert block.might_contain(0, 1)  # must not prune without a zone map

    def test_checksum_detects_corruption(self):
        block = ColumnBlock.from_values(np.arange(10), SqlType.INTEGER, codec="none")
        block.payload = block.payload[:-8] + b"\x00" * 8
        with pytest.raises(StorageError):
            block.values()

    def test_wire_roundtrip(self):
        values = np.arange(50, dtype=np.int64)
        block = ColumnBlock.from_values(values, SqlType.INTEGER, codec="rle")
        restored = ColumnBlock.from_bytes(block.to_bytes())
        assert restored.codec == "rle"
        assert np.array_equal(restored.values(), values)
        assert restored.min_value == block.min_value

    def test_wire_bad_magic(self):
        with pytest.raises(StorageError):
            ColumnBlock.from_bytes(b"XXXX" + b"\x00" * 64)

    def test_validity_preserved_through_wire(self):
        mask = np.array([True, False, True])
        block = ColumnBlock.from_values(
            np.array([1.0, 0.0, 3.0]), SqlType.FLOAT, validity=mask
        )
        restored = ColumnBlock.from_bytes(block.to_bytes())
        assert np.array_equal(restored.validity_mask(), mask)

    def test_compressed_size_positive(self):
        block = ColumnBlock.from_values(np.arange(10), SqlType.INTEGER)
        assert block.compressed_size > 0

    @pytest.mark.parametrize("validity", [None, np.arange(10) % 2 == 0])
    def test_compressed_size_is_the_serialized_length(self, validity):
        block = ColumnBlock.from_values(np.arange(10), SqlType.INTEGER,
                                        codec="none", validity=validity)
        assert block.compressed_size == len(block.to_bytes())


def column_of(sql_type: SqlType, length: int, seed: int = 0) -> np.ndarray:
    """Seeded values of ``sql_type``; floats carry NaN, ±inf and -0.0."""
    rng = np.random.default_rng([seed, length])
    if sql_type is SqlType.INTEGER:
        return rng.integers(-2**62, 2**62, length)
    if sql_type is SqlType.FLOAT:
        values = rng.normal(size=length)
        values[:4] = [np.nan, np.inf, -np.inf, -0.0][:length]
        return values
    if sql_type is SqlType.BOOLEAN:
        return rng.random(length) < 0.5
    return np.array(["é", "", "ab", "日本"], dtype=object)[rng.integers(0, 4, length)]


class TestColumnBlockLayouts:
    """Every layout round-trips through the wire format bit for bit, and a
    corrupted payload raises :class:`StorageError` rather than decode to
    wrong values."""

    @pytest.mark.parametrize("codec", ["none", "zlib", "rle"])
    @pytest.mark.parametrize("length", [0, 1, 7, 9, 1025])
    @pytest.mark.parametrize("sql_type", list(SqlType))
    def test_wire_roundtrip_with_nulls(self, sql_type, length, codec):
        values = column_of(sql_type, length)
        validity = np.arange(length) % 3 != 1
        if sql_type is SqlType.VARCHAR:
            values[~validity] = None
        block = ColumnBlock.from_values(values, sql_type, codec=codec,
                                        validity=validity)
        restored = ColumnBlock.from_bytes(block.to_bytes())
        assert restored.codec == block.codec
        assert restored.compressed_size == block.compressed_size
        plain = ColumnBlock.from_values(values, sql_type, codec="none")
        assert bits(restored.values()) == bits(plain.values())
        mask = restored.validity_mask()
        assert np.array_equal(mask if mask is not None else np.ones(length, bool),
                              validity)

    def test_decoded_numbers_are_writable(self):
        for values in (np.arange(5000), np.random.default_rng(0).normal(size=5000)):
            block = ColumnBlock.from_values(values, SqlType.from_numpy(values.dtype))
            assert block.codec == "zlib+shuffle"
            decoded = block.values()
            decoded[0] = 7
            assert block.values()[0] == values[0]

    @pytest.mark.parametrize("values, codec", [
        (["é", "", "naïve", "日本語", ""] * 300, "zlib+dict"),
        (["one"] * 1025, "zlib+dict"),
        ([f"distinct-{i}-é" for i in range(1025)], "zlib"),
    ])
    def test_varchar_blocks_decode_like_the_offsets_layout(self, values, codec):
        array = np.array(values, dtype=object)
        array[::7] = None
        block = ColumnBlock.from_bytes(
            ColumnBlock.from_values(array, SqlType.VARCHAR).to_bytes())
        assert block.codec == codec
        expected = ColumnBlock.from_values(array, SqlType.VARCHAR, codec="none")
        assert block.values().tolist() == expected.values().tolist()
        assert block.values()[0] == ""

    @pytest.mark.parametrize("values, sql_type, codec", [
        (np.random.default_rng(1).normal(size=300), SqlType.FLOAT, "zlib+shuffle"),
        (np.arange(300) * 3, SqlType.INTEGER, "zlib+shuffle"),
        (STATUSES[np.arange(300) % 4], SqlType.VARCHAR, "zlib+dict"),
    ])
    def test_flipped_payload_byte_is_detected(self, values, sql_type, codec):
        block = ColumnBlock.from_values(values, sql_type)
        assert block.codec == codec
        wire = block.to_bytes()
        start = len(wire) - len(block.payload)
        middle = bytearray(wire)
        middle[start + len(block.payload) // 2] ^= 0x5A
        with pytest.raises(StorageError):
            ColumnBlock.from_bytes(bytes(middle)).values()
        # Anywhere in the payload, a flip is caught or (in bits the deflate
        # stream does not use) changes nothing: never silently wrong rows.
        detected = 0
        for position in range(start, len(wire)):
            damaged = bytearray(wire)
            damaged[position] ^= 0x5A
            try:
                decoded = ColumnBlock.from_bytes(bytes(damaged)).values()
            except StorageError:
                detected += 1
            else:
                assert bits(decoded) == bits(block.values())
        assert detected >= 0.9 * len(block.payload)

    def test_layout_names_are_not_table_codecs(self):
        with pytest.raises(StorageError, match="unknown compression codec"):
            ColumnBlock.from_values(np.arange(4), SqlType.INTEGER,
                                    codec="zlib+shuffle")

    def test_plain_codecs_store_the_plain_encoding(self):
        values = np.arange(2000)
        encoded = encode_values(values, SqlType.INTEGER)
        for codec in ("none", "rle"):
            block = ColumnBlock.from_values(values, SqlType.INTEGER, codec=codec)
            assert block.codec == codec
            assert block.payload == compress(encoded, codec)
        strings = STATUSES[np.arange(2000) % 4]
        block = ColumnBlock.from_values(strings, SqlType.VARCHAR, codec="none")
        assert block.payload == offsets_layout_reference(strings)

    def test_blocks_in_the_plain_zlib_layout_still_decode(self):
        values = np.random.default_rng(2).normal(size=3000)
        encoded = encode_values(values, SqlType.FLOAT)
        block = ColumnBlock(SqlType.FLOAT, "zlib", 3000,
                            compress(encoded, "zlib"), b"", zlib.crc32(encoded))
        restored = ColumnBlock.from_bytes(block.to_bytes())
        assert restored.values().tobytes() == values.tobytes()


def layout_columns(rows: int = 4 * SAMPLE_ROWS, seed: int = 27) -> dict:
    """One seeded column of each shape the layout choice is pinned on."""
    rng = np.random.default_rng(seed)
    return {
        "normal": (rng.normal(size=rows), SqlType.FLOAT),
        "uniform": (rng.uniform(size=rows), SqlType.FLOAT),
        "cents": (np.round(rng.uniform(1.0, 100.0, rows), 2), SqlType.FLOAT),
        "arange": (np.arange(rows), SqlType.INTEGER),
        "sorted": (np.sort(rng.integers(0, 10 * rows, rows)), SqlType.INTEGER),
        "status": (STATUSES[rng.integers(0, len(STATUSES), rows)], SqlType.VARCHAR),
        "unique": (np.array([f"user-{i}-{rng.integers(10**9)}" for i in range(rows)],
                            dtype=object), SqlType.VARCHAR),
    }


class TestLayoutChoice:
    """Which layout the table codec ``zlib`` picks per column shape, and the
    stored size it buys — a later change that inflates storage fails here."""

    CHOICES = {
        "normal": "zlib+shuffle", "uniform": "zlib+shuffle",
        "arange": "zlib+shuffle", "sorted": "zlib+shuffle",
        "cents": "zlib", "status": "zlib+dict", "unique": "zlib",
    }

    @pytest.mark.parametrize("shape", list(CHOICES))
    def test_layout_choice_is_pinned_and_never_larger(self, shape):
        values, sql_type = layout_columns()[shape]
        block = ColumnBlock.from_values(values, sql_type)
        assert block.codec == self.CHOICES[shape]
        plain_zlib = compress(encode_values(values, sql_type), "zlib")
        assert len(block.payload) <= len(plain_zlib)

    # Per shape: stored bytes of a 2-node table of the column above (plus
    # the hidden row ids) and its blocks per layout.  Deterministic for the
    # seed and the zlib build (zlib.ZLIB_RUNTIME_VERSION 1.2.13 measured);
    # a change that moves them must update them and say why.
    STORED = {
        "normal": (30494, {"zlib+shuffle": 4}),
        "uniform": (28965, {"zlib+shuffle": 4}),
        "cents": (14780, {"zlib": 2, "zlib+shuffle": 2}),
        "arange": (1528, {"zlib+shuffle": 4}),
        "sorted": (5834, {"zlib+shuffle": 4}),
        "status": (2463, {"zlib+dict": 2, "zlib+shuffle": 2}),
        "unique": (45007, {"zlib": 2, "zlib+shuffle": 2}),
    }

    @pytest.mark.parametrize("shape", list(STORED))
    def test_stored_bytes_are_pinned(self, shape):
        values, _ = layout_columns()[shape]
        cluster = VerticaCluster(node_count=2)
        cluster.create_table_like("t", {"v": values})
        cluster.bulk_load("t", {"v": values})
        stats = cluster.table_stats("t")
        assert (stats["compressed_bytes"], stats["layouts"]) == self.STORED[shape]


class TestBytePlaneSelection:
    """Which byte planes a ``zlib+shuffle`` block deflates: the ones zlib
    shrinks, on the sample or on the longer probe; the rest are stored."""

    @staticmethod
    def deflated_planes(values: np.ndarray) -> list[int]:
        block = ColumnBlock.from_values(values, SqlType.from_numpy(values.dtype))
        assert block.codec == "zlib+shuffle"
        mask = block.payload[0]
        return [plane for plane in range(8) if mask >> plane & 1]

    def test_normal_doubles_deflate_their_two_high_planes(self):
        values = np.random.default_rng(0).normal(size=25_000)
        assert self.deflated_planes(values) == [6, 7]

    def test_a_counter_deflates_every_plane(self):
        assert self.deflated_planes(np.arange(25_000)) == list(range(8))

    def test_the_probe_keeps_a_hash_segmented_keys_low_plane_deflated(self):
        keys = np.arange(100_000)
        keys = keys[hash64(keys) % np.uint64(4) == 0]    # one node's keys
        low = np.ascontiguousarray(keys.view(np.uint8)[::8])
        # The sample alone does not shrink the low plane; the probe does.
        assert len(zlib.compress(low[:SAMPLE_ROWS], 1)) >= SAMPLE_ROWS
        assert len(zlib.compress(low[:PROBE_ROWS], 1)) < PROBE_ROWS
        assert self.deflated_planes(keys) == list(range(8))

    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 4095, 4096, 4097])
    def test_blocks_around_sample_and_probe_roundtrip(self, rows):
        rng = np.random.default_rng(rows)
        for values in (rng.normal(size=rows), np.sort(rng.integers(0, 8 * rows, rows))):
            block = ColumnBlock.from_bytes(ColumnBlock.from_values(
                values, SqlType.from_numpy(values.dtype)).to_bytes())
            assert block.codec == "zlib+shuffle"
            decoded = block.values()
            assert decoded.tobytes() == values.tobytes()
            assert decoded.flags.writeable


def corruptible_blocks() -> list[ColumnBlock]:
    """Small blocks in every codec and layout, of every type: the plain
    encodings under ``none`` and ``rle`` (with word runs for every type),
    and each layout ``zlib`` picks."""
    rng = np.random.default_rng(40)
    runs = np.repeat(np.array([3, -7, 2**40, 0]), [20, 5, 30, 9])
    columns = [
        (runs, SqlType.INTEGER),
        (np.arange(300) * 3, SqlType.INTEGER),
        (rng.normal(size=200), SqlType.FLOAT),
        (np.round(rng.uniform(1.0, 100.0, 64), 2), SqlType.FLOAT),
        (np.repeat([True, False, True], [24, 16, 32]), SqlType.BOOLEAN),
        # Eight bytes per string, so the offsets layout is word-aligned.
        (np.array(["abcdefgh"] * 6 + ["ijklmnop"] * 2, dtype=object), SqlType.VARCHAR),
        (np.array([f"id-{i:05d}" for i in range(40)], dtype=object), SqlType.VARCHAR),
    ]
    blocks = [ColumnBlock.from_values(values, sql_type, codec=codec)
              for values, sql_type in columns for codec in ("none", "rle", "zlib")]
    blocks.append(ColumnBlock.from_values(rng.normal(size=30), SqlType.FLOAT,
                                          validity=np.arange(30) % 4 != 0))
    return blocks


class TestCorruptBlocks:
    """A truncated or bit-flipped block raises :class:`StorageError` and
    nothing else: no decoder leaks a numpy or struct error, and none
    expands a corrupt run length into a huge allocation."""

    def test_every_codec_and_layout_is_swept(self):
        blocks = corruptible_blocks()
        assert {b.codec for b in blocks} == {
            "none", "rle", "zlib", "zlib+dict", "zlib+shuffle"}
        shuffled = [b.payload[0] for b in blocks if b.codec == "zlib+shuffle"]
        assert 0xFF in shuffled and any(m not in (0x00, 0xFF) for m in shuffled)
        # The rle blocks of every type hold runs, not the verbatim fallback.
        assert all(struct.unpack_from("<q", b.payload)[0] >= 0
                   for b in blocks if b.codec == "rle")

    @pytest.mark.parametrize("index", range(len(corruptible_blocks())))
    def test_truncated_and_flipped_blocks_raise_storage_errors(self, index):
        block = corruptible_blocks()[index]
        wire = block.to_bytes()
        expected = bits(block.values())
        damaged = [wire[:length] for length in range(len(wire))]
        for position in range(len(wire)):
            flipped = bytearray(wire)
            flipped[position] ^= 0x5A
            damaged.append(bytes(flipped))
        for data in damaged:
            try:
                decoded = ColumnBlock.from_bytes(data).values()
            except StorageError:
                continue
            assert bits(decoded) == expected   # a zone-map byte, say

    def test_a_non_ascii_codec_field_is_a_storage_error(self):
        wire = bytearray(ColumnBlock.from_values(np.arange(4), SqlType.INTEGER).to_bytes())
        wire[5] ^= 0x80                          # first byte of the codec field
        with pytest.raises(StorageError, match="codec field"):
            ColumnBlock.from_bytes(bytes(wire))

    def test_rle_rejects_runs_that_disagree_with_the_word_count(self):
        payload = bytearray(compress(np.repeat(np.arange(3), 4).tobytes(), "rle"))
        payload[16] = 5                         # first run length: 4 -> 5
        with pytest.raises(StorageError, match="add up"):
            decompress(bytes(payload), "rle")
        huge = bytearray(payload)
        huge[16:24] = struct.pack("<q", 2**62)   # no allocation is attempted
        with pytest.raises(StorageError):
            decompress(bytes(huge), "rle")
        with pytest.raises(StorageError, match="runs in"):
            decompress(bytes(payload[:-3]), "rle")

    def test_byte_plane_header_is_checked_against_the_payload(self):
        payload = shuffle_compress(np.random.default_rng(0).normal(size=64).tobytes(),
                                   0xC0)
        for mask, length in ((0xC0, 64 * 8 + 1), (0xC0, 64 * 8 - 8), (0xC1, 64 * 8),
                             (0x00, 2**32 - 1), (0xFF, 2**32 - 1)):
            forged = struct.pack("<BI", mask, length) + payload[5:]
            with pytest.raises(StorageError):
                shuffle_decompress(forged)
        with pytest.raises(StorageError, match="longer than"):
            shuffle_decompress(shuffle_compress(bytes(16), 0x00) + b"x")


class TestStoredSizeAcrossStorageModes:
    def test_memory_and_data_dir_report_the_same_stored_bytes(self, tmp_path):
        columns = {name: values for name, (values, _) in layout_columns(3000).items()}
        stats = []
        for data_dir in (None, tmp_path):
            cluster = VerticaCluster(node_count=3, data_dir=data_dir)
            cluster.create_table_like("t", columns)
            cluster.bulk_load("t", columns)
            cluster.bulk_load("t", {n: v[:500] for n, v in columns.items()})
            stats.append(cluster.table_stats("t"))
        memory, disk = stats
        assert memory["compressed_bytes"] == disk["compressed_bytes"] > 0
        assert memory["layouts"] == disk["layouts"]
        assert set(memory["layouts"]) == {"zlib", "zlib+dict", "zlib+shuffle"}


class TestRowGroup:
    def make_schema(self):
        return [
            ColumnSchema("a", SqlType.INTEGER),
            ColumnSchema("b", SqlType.FLOAT),
        ]

    def test_from_arrays_and_read(self):
        schema = self.make_schema()
        group = RowGroup.from_arrays(
            schema, {"a": np.arange(5), "b": np.linspace(0, 1, 5)}
        )
        assert group.row_count == 5
        decoded = group.read(["b"])
        assert np.allclose(decoded["b"], np.linspace(0, 1, 5))

    def test_missing_column_rejected(self):
        with pytest.raises(StorageError):
            RowGroup.from_arrays(self.make_schema(), {"a": np.arange(5)})

    def test_ragged_columns_rejected(self):
        with pytest.raises(StorageError):
            RowGroup.from_arrays(
                self.make_schema(), {"a": np.arange(5), "b": np.arange(4.0)}
            )

    def test_unknown_column_read_rejected(self):
        group = RowGroup.from_arrays(
            self.make_schema(), {"a": np.arange(2), "b": np.arange(2.0)}
        )
        with pytest.raises(StorageError):
            group.read(["missing"])

    def test_empty_schema_rejected(self):
        with pytest.raises(StorageError):
            RowGroup.from_arrays([], {})


class TestSegmentFile:
    def make_schema(self):
        return [
            ColumnSchema("id", SqlType.INTEGER),
            ColumnSchema("value", SqlType.FLOAT),
            ColumnSchema("label", SqlType.VARCHAR),
        ]

    def write_file(self, path, rowgroups=3, rows=100):
        schema = self.make_schema()
        with SegmentFileWriter(path, schema) as writer:
            for g in range(rowgroups):
                writer.append(RowGroup.from_arrays(schema, {
                    "id": np.arange(rows) + g * rows,
                    "value": np.linspace(0, 1, rows) + g,
                    "label": np.asarray([f"row{g}_{i}" for i in range(rows)],
                                        dtype=object),
                }))
        return SegmentFile(path)

    def test_roundtrip(self, tmp_path):
        segment = self.write_file(tmp_path / "seg.bin")
        assert segment.rowgroup_count == 3
        assert segment.row_count == 300
        group = segment.read_rowgroup(1, ["id", "label"])
        assert group.read()["id"][0] == 100
        assert group.read()["label"][0] == "row1_0"

    def test_column_subset_read(self, tmp_path):
        segment = self.write_file(tmp_path / "seg.bin")
        block = segment.read_block(0, "value")
        assert block.row_count == 100

    def test_iter_rowgroups_order(self, tmp_path):
        segment = self.write_file(tmp_path / "seg.bin")
        starts = [g.read(["id"])["id"][0] for g in segment.iter_rowgroups(["id"])]
        assert starts == [0, 100, 200]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            SegmentFile(tmp_path / "absent.bin")

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "seg.bin"
        self.write_file(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError):
            SegmentFile(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "seg.bin"
        self.write_file(path)
        data = bytearray(path.read_bytes())
        data[:5] = b"WRONG"
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            SegmentFile(path)

    def test_out_of_range_rowgroup(self, tmp_path):
        segment = self.write_file(tmp_path / "seg.bin")
        with pytest.raises(StorageError):
            segment.read_block(9, "id")

    def test_unknown_column(self, tmp_path):
        segment = self.write_file(tmp_path / "seg.bin")
        with pytest.raises(StorageError):
            segment.read_block(0, "nope")

    def test_double_close_is_safe(self, tmp_path):
        schema = self.make_schema()
        writer = SegmentFileWriter(tmp_path / "seg.bin", schema)
        writer.close()
        writer.close()

    def test_append_after_close_rejected(self, tmp_path):
        schema = self.make_schema()
        writer = SegmentFileWriter(tmp_path / "seg.bin", schema)
        writer.close()
        with pytest.raises(StorageError):
            writer.append(RowGroup.from_arrays(schema, {
                "id": np.arange(1), "value": np.zeros(1),
                "label": np.asarray(["x"], dtype=object),
            }))


class TestLayoutsThroughMover:
    """Blocks of every layout survive trickle inserts, deletes, moveout and
    mergeout: each rewrite picks its layouts again and scans stay exact."""

    def test_mover_roundtrip_keeps_every_layout_exact(self, data_dir):
        rows = 3000
        rng = np.random.default_rng(5)
        columns = {
            "k": np.arange(rows),
            "x": rng.normal(size=rows),
            "price": np.round(rng.uniform(1.0, 100.0, rows), 2),
            "status": STATUSES[rng.integers(0, len(STATUSES), rows)],
            "name": np.array([f"n{i}-é" for i in range(rows)], dtype=object),
        }
        cluster = VerticaCluster(node_count=2, data_dir=data_dir)
        cluster.tuple_mover.notify = lambda: None   # passes run when called
        cluster.create_table_like("t", columns)
        cluster.bulk_load("t", columns)
        assert set(cluster.table_stats("t")["layouts"]) == {
            "zlib", "zlib+dict", "zlib+shuffle"}
        for i in range(4):
            cluster.sql(f"INSERT INTO t VALUES ({rows + i}, -0.5, 1.25, "
                        f"'paid', 'new{i}')")
        cluster.sql("DELETE FROM t WHERE k < 700")
        query = "SELECT k, x, price, status, name FROM t ORDER BY k"
        before = cluster.sql(query).rows()
        keep = columns["k"] >= 700
        expected = list(zip(*(columns[name][keep].tolist() for name in columns)))
        expected += [(rows + i, -0.5, 1.25, "paid", f"new{i}") for i in range(4)]
        assert before == expected
        assert cluster.tuple_mover.run_moveout() == 4
        cluster.advance_ahm()
        _, purged = cluster.tuple_mover.run_mergeout()
        assert purged == 700
        assert cluster.sql(query).rows() == before
        stats = cluster.table_stats("t")
        assert stats["rows"] == rows + 4 - 700
        assert set(stats["layouts"]) == {"zlib", "zlib+dict", "zlib+shuffle"}
        cluster.tuple_mover.stop()


class TestLayoutsThroughMoverOnDisk(OnDisk, TestLayoutsThroughMover):
    pass
