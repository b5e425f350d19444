"""Block compression codecs for columnar storage.

Vertica compresses column blocks on disk; the paper's transfer-cost story
("the database first loads data from the local filesystem, deserializes and
decompresses data…") depends on this being real work, so blocks here are
genuinely compressed and decompressed.

A table takes one of two codecs (:data:`CODECS`): ``zlib``, the default,
or ``none``, which the compression ablation uses as its baseline.

:func:`shuffle_compress` / :func:`shuffle_decompress`
are the byte-plane form of ``zlib`` for 8-byte words, one of the block
layouts the table codec ``zlib`` chooses between
(:class:`~repro.storage.column.ColumnBlock`).  Words are split into their 8
byte planes; only the planes deflate shrinks go through zlib, and the rest
(a double's low mantissa bytes, which deflate to no less than their own
size) are stored verbatim, so loads and scans do not spend zlib's time on
them.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import StorageError

__all__ = ["CODECS", "compress", "decompress", "byte_planes", "deflated_size",
           "shuffle_compress", "shuffle_decompress"]

_ZLIB_LEVEL = 1
_WORD = 8  # bytes per value of the columns the byte-plane layout serves
_PLANE_HEADER = struct.Struct("<BI")  # deflated-plane mask, data length

CODECS = ("none", "zlib")


def compress(data: bytes, codec: str) -> bytes:
    """Compress ``data`` with ``codec``, one of :data:`CODECS`."""
    if codec == "zlib":
        return zlib.compress(data, level=_ZLIB_LEVEL)
    if codec == "none":
        return data
    raise StorageError(f"unknown compression codec: {codec!r}")


def decompress(data: bytes, codec: str) -> bytes:
    """Invert :func:`compress`."""
    if codec == "zlib":
        try:
            return zlib.decompress(data)
        except zlib.error as error:
            raise StorageError(f"corrupt zlib payload: {error}") from None
    if codec == "none":
        return data
    raise StorageError(f"unknown compression codec: {codec!r}")


def byte_planes(raw: np.ndarray) -> np.ndarray:
    """The whole 8-byte words of the byte array ``raw`` as a ``(8, words)``
    view: row ``j`` is byte ``j`` of every word.  Bytes after the last
    whole word are not in it."""
    words = raw.size // _WORD
    return raw[:words * _WORD].reshape(words, _WORD).T


def deflated_size(plane: np.ndarray) -> int:
    """Bytes zlib makes of ``plane``, a byte array (a row of
    :func:`byte_planes` or a slice of one)."""
    return len(zlib.compress(np.ascontiguousarray(plane), _ZLIB_LEVEL))


def _split_mask(mask: int) -> tuple[list[int], list[int]]:
    """The planes ``mask`` deflates and the planes it stores, in order."""
    deflated = [j for j in range(_WORD) if mask >> j & 1]
    stored = [j for j in range(_WORD) if not mask >> j & 1]
    return deflated, stored


def shuffle_compress(data: bytes | np.ndarray, mask: int) -> bytes:
    """``data`` as byte planes (byte 0 of every 8-byte word, then byte 1 of
    every word, and so on), with only the planes in ``mask`` deflated.

    Neighbouring numbers share sign, exponent and high-order bytes, so those
    planes hold the long runs and repeats that zlib cannot see while they
    are interleaved with noisy low-order bytes; a plane of noise (a double's
    low mantissa bytes) deflates to no less than its own size, so it is
    cheaper to store it as it is.  Bit ``j`` of ``mask`` sends plane ``j``
    through zlib.

    Layout: a header (the mask, the length of ``data``), then the stored
    planes verbatim in plane order, then one zlib stream of the deflated
    planes in plane order followed by the tail shorter than a word.  The
    stream is left out when it would hold no byte.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size > 0xFFFFFFFF:
        raise StorageError(f"byte-plane block too large: {raw.size} bytes")
    planes = byte_planes(raw)
    words = planes.shape[1]
    deflated, stored = _split_mask(mask)
    # The planes in payload order, then the tail.
    grouped = np.empty_like(raw)
    for row, plane in enumerate(stored + deflated):
        grouped[row * words:(row + 1) * words] = planes[plane]
    grouped[_WORD * words:] = raw[_WORD * words:]
    split = len(stored) * words
    stream = zlib.compress(grouped[split:], _ZLIB_LEVEL) if split < raw.size else b""
    return b"".join((_PLANE_HEADER.pack(mask, raw.size), grouped[:split], stream))


def shuffle_decompress(payload: bytes) -> np.ndarray:
    """Invert :func:`shuffle_compress` into a fresh, writable byte array,
    which the caller may adopt as is: the stored planes and the inflated
    ones are written straight into it."""
    if len(payload) < _PLANE_HEADER.size:
        raise StorageError("byte-plane payload too short for its header")
    mask, length = _PLANE_HEADER.unpack_from(payload, 0)
    words, tail = divmod(length, _WORD)
    deflated, stored = _split_mask(mask)
    split = _PLANE_HEADER.size + len(stored) * words
    if len(payload) < split:
        raise StorageError("byte-plane payload truncated in its stored planes")
    expected = len(deflated) * words + tail
    stream = memoryview(payload)[split:]
    if not expected and len(stream):
        raise StorageError("byte-plane payload longer than its planes")
    inflated = np.frombuffer(_inflate(stream, expected) if expected else b"",
                             dtype=np.uint8)
    verbatim = np.frombuffer(payload, dtype=np.uint8, count=split - _PLANE_HEADER.size,
                             offset=_PLANE_HEADER.size)
    rows = [*verbatim.reshape(len(stored), words),
            *inflated[:len(deflated) * words].reshape(len(deflated), words)]
    out = np.empty(length, dtype=np.uint8)
    planes = byte_planes(out)
    for plane, row in zip(stored + deflated, rows):
        planes[plane] = row
    out[_WORD * words:] = inflated[len(deflated) * words:]
    return out


def _inflate(stream: memoryview, expected: int) -> bytes:
    """The one zlib stream in ``stream``, which must inflate to exactly
    ``expected`` bytes; inflating stops one byte past that."""
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(stream, expected + 1)
    except zlib.error as error:
        raise StorageError(f"corrupt zlib payload: {error}") from None
    if len(out) != expected or not inflater.eof:
        raise StorageError(
            f"byte-plane zlib stream holds {len(out)} bytes, expected {expected}")
    return out
