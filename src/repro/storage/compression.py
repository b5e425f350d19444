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
(:class:`~repro.storage.column.ColumnBlock`).  Words are split into their 8
byte planes; only the planes deflate shrinks go through zlib, and the rest
(a double's low mantissa bytes, which deflate to no less than their own
size) are stored verbatim, so loads and scans do not spend zlib's time on
them.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable

import numpy as np

from repro.errors import StorageError

__all__ = ["compress", "decompress", "available_codecs", "register_codec",
           "byte_planes", "deflated_size", "shuffle_compress",
           "shuffle_decompress"]

_ZLIB_LEVEL = 1
_WORD = 8  # bytes per value of the columns the byte-plane layout serves
_PLANE_HEADER = struct.Struct("<BI")  # deflated-plane mask, data length
_RLE_HEADER = struct.Struct("<qq")    # run count, word count

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
    integer columns, which is the case Vertica's RLE targets.

    Layout: the run count and the word count (two ``<q``), then one
    (length, value) pair of ``<q`` per run.  The word count lets the decoder
    check the runs before it expands them.
    """
    if len(data) % 8 != 0:
        # Not word-aligned: store verbatim with a sentinel run count of -1.
        return struct.pack("<q", -1) + data
    words = np.frombuffer(data, dtype=np.int64)
    if words.size == 0:
        return _RLE_HEADER.pack(0, 0)
    change = np.flatnonzero(np.diff(words)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [words.size]))
    runs = np.empty((starts.size, 2), dtype=np.int64)
    runs[:, 0] = ends - starts       # run length
    runs[:, 1] = words[starts]       # run value
    return _RLE_HEADER.pack(starts.size, words.size) + runs.tobytes()


def _rle_decompress(data: bytes) -> bytes:
    if len(data) < 8:
        raise StorageError("RLE block too short for its header")
    if struct.unpack_from("<q", data, 0) == (-1,):
        return data[8:]
    if len(data) < _RLE_HEADER.size:
        raise StorageError("RLE block too short for its header")
    nruns, total = _RLE_HEADER.unpack_from(data, 0)
    if nruns < 0 or len(data) != _RLE_HEADER.size + 16 * nruns:
        raise StorageError(f"corrupt RLE block: {nruns} runs in {len(data)} bytes")
    runs = np.frombuffer(data, dtype=np.int64, count=nruns * 2,
                         offset=_RLE_HEADER.size).reshape(nruns, 2)
    lengths = runs[:, 0]
    if nruns and (lengths.min() <= 0 or lengths.max() > total):
        raise StorageError("corrupt RLE block: run length out of range")
    # Every length is at most ``total``, so the sum cannot overflow below.
    if nruns * total >= 2**63 or int(lengths.sum()) != total:
        raise StorageError(f"corrupt RLE block: runs do not add up to {total} words")
    return np.repeat(runs[:, 1], lengths).tobytes()


def _zlib_decompress(data: bytes) -> bytes:
    try:
        return zlib.decompress(data)
    except zlib.error as error:
        raise StorageError(f"corrupt zlib payload: {error}") from None


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


register_codec("none", lambda data: data, lambda data: data)
register_codec(
    "zlib",
    lambda data: zlib.compress(data, level=_ZLIB_LEVEL),
    _zlib_decompress,
)
register_codec("rle", _rle_compress, _rle_decompress)
