"""Typed column encodings.

Vertica is a columnar store: table data lives on disk as per-column blocks.
This module maps the SQL type system used by the reproduction onto numpy
arrays and defines how each type is serialized to bytes.  Fixed-width types
round-trip through raw little-endian buffers; VARCHAR uses an offsets +
UTF-8 payload layout (the classic Arrow/Parquet string encoding), or, for
few distinct values, a dictionary layout: the distinct strings once in the
offsets layout plus one small unsigned code per row.

Null handling: a column block carries an optional validity bitmap next to the
value buffer; encoding and decoding of the bitmap is shared across types.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError

__all__ = ["SqlType", "ColumnSchema", "encode_values", "decode_values",
           "encode_dictionary", "decode_dictionary",
           "pack_validity", "unpack_validity", "coerce_to_dtype"]

_DICTIONARY_HEADER = struct.Struct("<qq")  # row count, distinct count


class SqlType(enum.Enum):
    """SQL column types supported by the reproduction's database."""

    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    VARCHAR = "varchar"

    @property
    def numpy_dtype(self) -> np.dtype:
        return _NUMPY_DTYPES[self]

    @property
    def fixed_width(self) -> int | None:
        """Bytes per value for fixed-width types, ``None`` for VARCHAR."""
        return _FIXED_WIDTHS[self]

    @classmethod
    def from_sql_name(cls, name: str) -> "SqlType":
        """Resolve a SQL type name (``INT``, ``DOUBLE PRECISION``, …)."""
        key = " ".join(name.strip().lower().split())
        try:
            return _SQL_NAME_ALIASES[key]
        except KeyError:
            raise StorageError(f"unknown SQL type: {name!r}") from None

    @classmethod
    def from_numpy(cls, dtype: np.dtype) -> "SqlType":
        """Map a numpy dtype onto the closest SQL type."""
        dtype = np.dtype(dtype)
        if dtype.kind == "b":
            return cls.BOOLEAN
        if dtype.kind in "iu":
            return cls.INTEGER
        if dtype.kind == "f":
            return cls.FLOAT
        if dtype.kind in "UOS":
            return cls.VARCHAR
        raise StorageError(f"no SQL type for numpy dtype {dtype!r}")


_NUMPY_DTYPES = {
    SqlType.INTEGER: np.dtype(np.int64),
    SqlType.FLOAT: np.dtype(np.float64),
    SqlType.BOOLEAN: np.dtype(np.bool_),
    SqlType.VARCHAR: np.dtype(object),
}

_FIXED_WIDTHS = {
    SqlType.INTEGER: 8,
    SqlType.FLOAT: 8,
    SqlType.BOOLEAN: 1,
    SqlType.VARCHAR: None,
}

_SQL_NAME_ALIASES = {
    "int": SqlType.INTEGER,
    "integer": SqlType.INTEGER,
    "bigint": SqlType.INTEGER,
    "smallint": SqlType.INTEGER,
    "float": SqlType.FLOAT,
    "double": SqlType.FLOAT,
    "double precision": SqlType.FLOAT,
    "real": SqlType.FLOAT,
    "numeric": SqlType.FLOAT,
    "bool": SqlType.BOOLEAN,
    "boolean": SqlType.BOOLEAN,
    "varchar": SqlType.VARCHAR,
    "char": SqlType.VARCHAR,
    "text": SqlType.VARCHAR,
    "string": SqlType.VARCHAR,
}


@dataclass(frozen=True)
class ColumnSchema:
    """Name and type of one table column."""

    name: str
    sql_type: SqlType

    def __post_init__(self) -> None:
        if not self.name:
            raise StorageError("column name must be non-empty")

    @property
    def numpy_dtype(self) -> np.dtype:
        return self.sql_type.numpy_dtype


def coerce_to_dtype(values: np.ndarray, sql_type: SqlType) -> np.ndarray:
    """Return ``values`` converted to the canonical dtype for ``sql_type``."""
    target = sql_type.numpy_dtype
    arr = np.asarray(values)
    if sql_type is SqlType.VARCHAR:
        if arr.dtype == object:
            return arr
        return arr.astype(object)
    try:
        return arr.astype(target, casting="same_kind", copy=False)
    except TypeError:
        # Fall back to an unsafe cast (e.g. int -> float widening).
        return arr.astype(target)


def encode_values(values: np.ndarray, sql_type: SqlType) -> bytes:
    """Serialize a 1-D value array (nulls already stripped/filled) to bytes."""
    arr = coerce_to_dtype(values, sql_type)
    if arr.ndim != 1:
        raise StorageError(f"column values must be 1-D, got shape {arr.shape}")
    if sql_type is SqlType.VARCHAR:
        return _encode_varchar(_texts(arr))
    return np.ascontiguousarray(arr).tobytes()


def decode_values(buffer: bytes | np.ndarray, sql_type: SqlType,
                  count: int) -> np.ndarray:
    """Inverse of :func:`encode_values`.

    A fixed-width column is copied out of a read-only ``buffer`` (bytes, a
    file read) so that it can be written to; a writable buffer (a numpy
    array the caller just filled) is adopted without a copy.
    """
    if sql_type is SqlType.VARCHAR:
        return _decode_varchar(buffer, count)
    width = sql_type.fixed_width
    expected = width * count
    if len(buffer) != expected:
        raise StorageError(
            f"column buffer has {len(buffer)} bytes, expected {expected} "
            f"for {count} values of {sql_type.value}"
        )
    arr = np.frombuffer(buffer, dtype=sql_type.numpy_dtype, count=count)
    return arr if arr.flags.writeable else arr.copy()


def encode_dictionary(values: np.ndarray) -> bytes | None:
    """Encode VARCHAR ``values`` in the dictionary layout, or return
    ``None`` when it would not be smaller than the offsets layout.

    Layout: row count and distinct count (two ``<q``), the distinct strings
    in first-seen order in the offsets layout, then one unsigned code per
    row, as narrow as the distinct count allows.
    """
    texts = _texts(coerce_to_dtype(values, SqlType.VARCHAR))
    distinct = list(dict.fromkeys(texts))
    code_dtype = _code_dtype(len(distinct))
    # Against the offsets layout this trades one 8-byte offset per row for
    # a code per row plus a header and an offset per distinct string; the
    # strings themselves are stored once instead of once per row, which can
    # only save more.
    header_and_offsets = _DICTIONARY_HEADER.size + 8 * len(distinct)
    if header_and_offsets + code_dtype.itemsize * len(texts) >= 8 * len(texts):
        return None
    index = {text: code for code, text in enumerate(distinct)}
    codes = np.fromiter(map(index.__getitem__, texts), dtype=code_dtype,
                        count=len(texts))
    return (_DICTIONARY_HEADER.pack(len(texts), len(distinct))
            + _encode_varchar(distinct) + codes.tobytes())


def decode_dictionary(buffer: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`encode_dictionary`: the same object array the
    offsets layout decodes to."""
    if len(buffer) < _DICTIONARY_HEADER.size:
        raise StorageError("dictionary buffer too short for its header")
    stored_count, distinct_count = _DICTIONARY_HEADER.unpack_from(buffer, 0)
    if stored_count != count:
        raise StorageError(
            f"dictionary buffer holds {stored_count} values, expected {count}"
        )
    if distinct_count < 0:
        raise StorageError(f"corrupt dictionary size {distinct_count}")
    code_dtype = _code_dtype(distinct_count)
    split = len(buffer) - code_dtype.itemsize * count
    if split < _DICTIONARY_HEADER.size:
        raise StorageError("dictionary buffer truncated in codes section")
    distinct = _decode_varchar(buffer[_DICTIONARY_HEADER.size:split],
                               distinct_count)
    codes = np.frombuffer(buffer, dtype=code_dtype, count=count, offset=split)
    if count and int(codes.max()) >= distinct_count:
        raise StorageError("dictionary code out of range")
    return distinct[codes]


def _code_dtype(distinct_count: int) -> np.dtype:
    for dtype in (np.uint8, np.uint16):
        if distinct_count <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.uint32)


def _texts(arr: np.ndarray) -> list[str]:
    """What a VARCHAR slot stores: its string, ``""`` for a NULL."""
    return ["" if v is None else str(v) for v in arr]


def _encode_varchar(texts: list[str]) -> bytes:
    blobs = [text.encode("utf-8") for text in texts]
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, blobs), dtype=np.int64, count=len(blobs)),
              out=offsets[1:])
    header = struct.pack("<q", len(blobs))
    return header + offsets.tobytes() + b"".join(blobs)


def _decode_varchar(buffer: bytes, count: int) -> np.ndarray:
    if len(buffer) < 8:
        raise StorageError("varchar buffer too short for its header")
    (stored_count,) = struct.unpack_from("<q", buffer, 0)
    if stored_count != count:
        raise StorageError(
            f"varchar buffer holds {stored_count} values, expected {count}"
        )
    offsets_end = 8 + 8 * (count + 1)
    if len(buffer) < offsets_end:
        raise StorageError("varchar buffer truncated in offsets section")
    offsets = np.frombuffer(buffer, dtype=np.int64, count=count + 1,
                            offset=8).tolist()
    payload = buffer[offsets_end:]
    if len(payload) != offsets[-1]:
        raise StorageError("varchar payload length mismatch")
    text = payload.decode("utf-8")
    # ASCII text has one character per byte, so byte offsets index the
    # decoded string directly; otherwise decode value by value.
    if len(text) == len(payload):
        values = [text[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    else:
        values = [payload[lo:hi].decode("utf-8")
                  for lo, hi in zip(offsets, offsets[1:])]
    out = np.empty(count, dtype=object)
    out[:] = values
    return out


def pack_validity(mask: np.ndarray | None, count: int) -> bytes:
    """Pack a boolean validity mask (True = present) into a bitmap.

    Returns ``b""`` when every value is valid, which is the common case and
    keeps fully-dense blocks compact.
    """
    if mask is None:
        return b""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (count,):
        raise StorageError(f"validity mask shape {mask.shape} != ({count},)")
    if mask.all():
        return b""
    return np.packbits(mask).tobytes()


def unpack_validity(bitmap: bytes, count: int) -> np.ndarray | None:
    """Inverse of :func:`pack_validity`; ``None`` means all-valid."""
    if not bitmap:
        return None
    bits = np.unpackbits(np.frombuffer(bitmap, dtype=np.uint8), count=count)
    return bits.astype(bool)
