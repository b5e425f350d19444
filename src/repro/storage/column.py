"""Column blocks: the unit of columnar storage and of VFT streaming.

A :class:`ColumnBlock` is an encoded, compressed run of values from one
column, carrying enough metadata (row count, min/max zone map, checksum) for
scan pruning and corruption detection.  Blocks are what segment files store
and what Vertica Fast Transfer puts on the wire.

Under the table codec ``zlib`` each block picks the byte layout that suits
its values, as a column store's designer picks encodings from a sample:

* ``zlib+shuffle`` — INTEGER/FLOAT words as byte planes
  (:func:`~repro.storage.compression.shuffle_compress`), when the planes of
  the block's first :data:`SAMPLE_ROWS` values, each compressed alone or
  kept raw where zlib does not shrink it, take less room than the values
  under plain zlib.  Only the planes zlib shrinks are deflated: on the
  sample, or, for a plane the sample does not shrink, on its first
  :data:`PROBE_ROWS` bytes; the others are stored raw;
* ``zlib+dict`` — VARCHAR as a dictionary plus one code per row
  (:func:`~repro.storage.encoding.encode_dictionary`), then zlib, when that
  is smaller than the offsets layout;
* ``zlib`` — the plain encoding, then zlib, otherwise.

The block's codec field records the layout, so every block decodes on its
own wherever it travels.  The codec ``none`` stores the plain encoding
uncompressed; a block whose codec field names anything else raises
:class:`~repro.errors.StorageError` when decoded.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.storage import compression
from repro.storage.encoding import (
    SqlType,
    coerce_to_dtype,
    decode_dictionary,
    decode_values,
    encode_dictionary,
    encode_values,
    pack_validity,
    unpack_validity,
)

__all__ = ["ColumnBlock", "PROBE_ROWS", "SAMPLE_ROWS"]

_HEADER_FMT = "<4sB16sqqI"  # magic, type-code, codec (padded), rows, validity len, crc
_ZONE_FMT = "<Bdd"          # has zone map, min, max
_FRAMING_SIZE = struct.calcsize(_HEADER_FMT) + struct.calcsize(_ZONE_FMT)
_MAGIC = b"RCB1"
_TYPE_CODES = {t: i for i, t in enumerate(SqlType)}
_TYPE_FROM_CODE = {i: t for t, i in _TYPE_CODES.items()}

_SHUFFLE = "zlib+shuffle"
_DICTIONARY = "zlib+dict"
# Values of a block that the layout choice compresses both ways, plane by
# plane and as plain words.
SAMPLE_ROWS = 1024
# Values of a byte plane compressed once more before the plane is stored
# raw: a noisy plane that deflate still shrinks can need more than the
# sample to show it.
PROBE_ROWS = 4096


def _zlib_layout(arr: np.ndarray, sql_type: SqlType
                 ) -> tuple[str, bytes | np.ndarray, bytes]:
    """``(codec field, encoded bytes, payload)`` of ``arr`` under the table
    codec ``zlib``: the layout of the three that suits the values."""
    if sql_type is SqlType.VARCHAR:
        encoded = encode_dictionary(arr)
        if encoded is not None:
            return _DICTIONARY, encoded, compression.compress(encoded, "zlib")
    if sql_type.fixed_width != 8:
        encoded = encode_values(arr, sql_type)
        return "zlib", encoded, compression.compress(encoded, "zlib")
    # An 8-byte column's plain encoding is its own buffer: compress from
    # there instead of a copy.
    encoded = np.ascontiguousarray(arr).view(np.uint8)
    planes = compression.byte_planes(encoded)
    rows = planes.shape[1]
    sample_rows = min(rows, SAMPLE_ROWS)
    sizes = [compression.deflated_size(plane[:SAMPLE_ROWS]) for plane in planes]
    plain = compression.compress(encoded[:SAMPLE_ROWS * 8], "zlib")
    if sum(min(size, sample_rows) for size in sizes) >= len(plain):
        return ("zlib", encoded, plain if rows == sample_rows
                else compression.compress(encoded, "zlib"))
    # Deflate a plane only where that shrinks it: the sample says so, or,
    # for a plane the sample could not shrink, a longer probe does.
    probe_rows = min(rows, PROBE_ROWS)
    mask = 0
    for j, (plane, size) in enumerate(zip(planes, sizes)):
        if size < sample_rows or (
                probe_rows > sample_rows
                and compression.deflated_size(plane[:PROBE_ROWS]) < probe_rows):
            mask |= 1 << j
    return _SHUFFLE, encoded, compression.shuffle_compress(encoded, mask)


@dataclass
class ColumnBlock:
    """One compressed block of a single column."""

    sql_type: SqlType
    codec: str              # the table codec, or the zlib layout it chose
    row_count: int
    payload: bytes          # compressed encoded values
    validity: bytes         # packed validity bitmap, b"" = all valid
    checksum: int           # crc32 of the *uncompressed* encoded values
    min_value: float | None = None
    max_value: float | None = None

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        sql_type: SqlType,
        codec: str = "zlib",
        validity: np.ndarray | None = None,
    ) -> "ColumnBlock":
        """Encode and compress ``values`` into a block."""
        arr = coerce_to_dtype(np.asarray(values), sql_type)
        if arr.ndim != 1:
            raise StorageError(f"column block values must be 1-D, got {arr.shape}")
        if codec == "zlib":
            codec, encoded, payload = _zlib_layout(arr, sql_type)
        else:
            encoded = encode_values(arr, sql_type)
            payload = compression.compress(encoded, codec)
        min_value = max_value = None
        if sql_type in (SqlType.INTEGER, SqlType.FLOAT) and arr.size:
            if validity is None:
                live = arr
            else:
                live = arr[np.asarray(validity, dtype=bool)]
            if live.size:
                finite = live[np.isfinite(live.astype(np.float64))]
                if finite.size:
                    min_value = float(finite.min())
                    max_value = float(finite.max())
        return cls(
            sql_type=sql_type,
            codec=codec,
            row_count=int(arr.size),
            payload=payload,
            validity=pack_validity(validity, int(arr.size)),
            checksum=zlib.crc32(encoded),
            min_value=min_value,
            max_value=max_value,
        )

    def values(self) -> np.ndarray:
        """Decompress and decode the block back into a numpy array."""
        if self.codec == _SHUFFLE:
            encoded = compression.shuffle_decompress(self.payload)
        elif self.codec == _DICTIONARY:
            encoded = compression.decompress(self.payload, "zlib")
        else:
            encoded = compression.decompress(self.payload, self.codec)
        if zlib.crc32(encoded) != self.checksum:
            raise StorageError("column block checksum mismatch: corrupt payload")
        if self.codec == _DICTIONARY:
            return decode_dictionary(encoded, self.row_count)
        return decode_values(encoded, self.sql_type, self.row_count)

    def validity_mask(self) -> np.ndarray | None:
        """Boolean present-mask, or ``None`` when every row is valid."""
        return unpack_validity(self.validity, self.row_count)

    @property
    def compressed_size(self) -> int:
        """Bytes this block occupies on disk / on the wire: the length of
        :meth:`to_bytes`."""
        return len(self.payload) + len(self.validity) + _FRAMING_SIZE

    def might_contain(self, low: float | None, high: float | None) -> bool:
        """Zone-map pruning: can any value fall inside ``[low, high]``?"""
        if self.min_value is None or self.max_value is None:
            return True
        if low is not None and self.max_value < low:
            return False
        if high is not None and self.min_value > high:
            return False
        return True

    def to_bytes(self) -> bytes:
        """Serialize the block (header + bitmap + payload) for disk or wire."""
        codec_bytes = self.codec.encode("ascii")
        if len(codec_bytes) > 16:
            raise StorageError(f"codec name too long to serialize: {self.codec!r}")
        header = struct.pack(
            _HEADER_FMT,
            _MAGIC,
            _TYPE_CODES[self.sql_type],
            codec_bytes.ljust(16, b"\0"),
            self.row_count,
            len(self.validity),
            self.checksum,
        )
        zone = struct.pack(
            _ZONE_FMT,
            1 if self.min_value is not None else 0,
            self.min_value if self.min_value is not None else 0.0,
            self.max_value if self.max_value is not None else 0.0,
        )
        return header + zone + self.validity + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnBlock":
        """Inverse of :meth:`to_bytes`."""
        header_size = struct.calcsize(_HEADER_FMT)
        if len(data) < header_size:
            raise StorageError("column block truncated in header")
        magic, type_code, codec_raw, rows, validity_len, checksum = struct.unpack_from(
            _HEADER_FMT, data, 0
        )
        if magic != _MAGIC:
            raise StorageError(f"bad column block magic: {magic!r}")
        try:
            sql_type = _TYPE_FROM_CODE[type_code]
        except KeyError:
            raise StorageError(f"unknown column type code: {type_code}") from None
        if len(data) < _FRAMING_SIZE:
            raise StorageError("column block truncated in zone map")
        has_zone, zmin, zmax = struct.unpack_from(_ZONE_FMT, data, header_size)
        offset = _FRAMING_SIZE
        validity = bytes(data[offset:offset + validity_len])
        if len(validity) != validity_len:
            raise StorageError("column block truncated in validity bitmap")
        payload = bytes(data[offset + validity_len:])
        try:
            codec = codec_raw.rstrip(b"\0").decode("ascii")
        except UnicodeDecodeError:
            raise StorageError(f"bad column block codec field: {codec_raw!r}") from None
        return cls(
            sql_type=sql_type,
            codec=codec,
            row_count=rows,
            payload=payload,
            validity=validity,
            checksum=checksum,
            min_value=zmin if has_zone else None,
            max_value=zmax if has_zone else None,
        )
