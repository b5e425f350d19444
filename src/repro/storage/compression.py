"""Block compression codecs for columnar storage.

Vertica compresses column blocks on disk; the paper's transfer-cost story
("the database first loads data from the local filesystem, deserializes and
decompresses data…") depends on this being real work, so blocks here are
genuinely compressed and decompressed.

Codecs are registered by name so tests and ablation benchmarks can switch
them per-table (``none``, ``zlib``, ``rle`` for integer runs).

Beside the registry, :func:`shuffle_compress` / :func:`shuffle_decompress`
are the byte-plane form of ``zlib`` for 8-byte words, one of the block
layouts the table codec ``zlib`` chooses between
(:class:`~repro.storage.column.ColumnBlock`).
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable

import numpy as np

from repro.errors import StorageError

__all__ = ["compress", "decompress", "available_codecs", "register_codec",
           "shuffle_compress", "shuffle_decompress"]

_ZLIB_LEVEL = 1
_WORD = 8  # bytes per value of the columns the byte-plane layout serves

_CompressFn = Callable[[bytes], bytes]
_DecompressFn = Callable[[bytes], bytes]

_CODECS: dict[str, tuple[_CompressFn, _DecompressFn]] = {}


def register_codec(name: str, compress_fn: _CompressFn, decompress_fn: _DecompressFn) -> None:
    """Register a codec under ``name`` (overwrites an existing entry)."""
    if not name or not name.islower():
        raise StorageError(f"codec names must be non-empty lowercase, got {name!r}")
    _CODECS[name] = (compress_fn, decompress_fn)


def available_codecs() -> list[str]:
    """Names of all registered codecs, sorted."""
    return sorted(_CODECS)


def compress(data: bytes, codec: str) -> bytes:
    """Compress ``data`` with ``codec``."""
    try:
        compress_fn, _ = _CODECS[codec]
    except KeyError:
        raise StorageError(f"unknown compression codec: {codec!r}") from None
    return compress_fn(data)


def decompress(data: bytes, codec: str) -> bytes:
    """Invert :func:`compress`."""
    try:
        _, decompress_fn = _CODECS[codec]
    except KeyError:
        raise StorageError(f"unknown compression codec: {codec!r}") from None
    return decompress_fn(data)


def _rle_compress(data: bytes) -> bytes:
    """Run-length encode 8-byte words — effective on sorted/low-cardinality
    integer columns, which is the case Vertica's RLE targets."""
    if len(data) % 8 != 0:
        # Not word-aligned: store verbatim with a sentinel run count of -1.
        return struct.pack("<q", -1) + data
    words = np.frombuffer(data, dtype=np.int64)
    if words.size == 0:
        return struct.pack("<q", 0)
    change = np.flatnonzero(np.diff(words)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [words.size]))
    runs = np.empty((starts.size, 2), dtype=np.int64)
    runs[:, 0] = ends - starts       # run length
    runs[:, 1] = words[starts]       # run value
    return struct.pack("<q", starts.size) + runs.tobytes()


def _rle_decompress(data: bytes) -> bytes:
    if len(data) < 8:
        raise StorageError("RLE block too short for its header")
    (nruns,) = struct.unpack_from("<q", data, 0)
    body = data[8:]
    if nruns == -1:
        return body
    if nruns == 0:
        return b""
    runs = np.frombuffer(body, dtype=np.int64, count=nruns * 2).reshape(nruns, 2)
    lengths = runs[:, 0]
    if (lengths <= 0).any():
        raise StorageError("corrupt RLE block: non-positive run length")
    return np.repeat(runs[:, 1], lengths).tobytes()


def _zlib_decompress(data: bytes) -> bytes:
    try:
        return zlib.decompress(data)
    except zlib.error as error:
        raise StorageError(f"corrupt zlib payload: {error}") from None


def _regroup(raw: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A copy of the byte array ``raw`` whose first ``rows * cols`` bytes,
    read as a ``(rows, cols)`` matrix, are written out transposed; the
    bytes after them are copied as they are."""
    out = np.empty_like(raw)
    split = rows * cols
    out[:split].reshape(cols, rows)[:] = raw[:split].reshape(rows, cols).T
    out[split:] = raw[split:]
    return out


def shuffle_compress(data: bytes | np.ndarray) -> bytes:
    """zlib over ``data`` regrouped into byte planes: byte 0 of every
    8-byte word, then byte 1 of every word, and so on.

    Neighbouring numbers share sign, exponent and high-order bytes, so each
    plane holds the long runs and repeats that zlib cannot see while they
    are interleaved with noisy low-order bytes.  A tail shorter than a word
    is kept after the planes.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    return zlib.compress(_regroup(raw, raw.size // _WORD, _WORD), _ZLIB_LEVEL)


def shuffle_decompress(payload: bytes) -> np.ndarray:
    """Invert :func:`shuffle_compress` into a fresh, writable byte array:
    one copy beyond zlib's output, which the caller may adopt as is."""
    planes = np.frombuffer(_zlib_decompress(payload), dtype=np.uint8)
    return _regroup(planes, _WORD, planes.size // _WORD)


register_codec("none", lambda data: data, lambda data: data)
register_codec(
    "zlib",
    lambda data: zlib.compress(data, level=_ZLIB_LEVEL),
    _zlib_decompress,
)
register_codec("rle", _rle_compress, _rle_decompress)
