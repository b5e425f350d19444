"""Tests for the columnar storage substrate."""

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
from repro.storage.encoding import (
    decode_values,
    encode_values,
    pack_validity,
    unpack_validity,
)


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
