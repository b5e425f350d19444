"""Wire protocol for Vertica Fast Transfer streams.

VFT ships *column blocks* (the database's native compressed format) rather
than rows of text: each chunk on the wire is a frame holding one block per
requested column.  A frame that is one whole stored row group carries the
blocks the ROS already holds (:func:`frame_of_blocks`); any other chunk is
compressed into blocks on the way out (:func:`encode_frame`), with the same
codec, so both give the same bytes for the same rows.  Receivers stage raw
frames in worker shm buffers and parse them into numpy matrices only once a
stream completes (§3.3's two-step receive).

Frame layout::

    u32 column_count
    repeated column_count times:
        u16 name_length | name bytes (utf-8) | u64 block_length | block bytes
"""

from __future__ import annotations

import struct
from typing import Mapping

import numpy as np

from repro.errors import TransferError
from repro.storage.column import ColumnBlock
from repro.storage.encoding import SqlType

__all__ = ["encode_frame", "frame_of_blocks", "decode_frames", "validate_frame",
           "frames_to_matrix", "frames_to_columns"]


def encode_frame(columns: dict[str, np.ndarray], sql_types: dict[str, SqlType],
                 codec: str = "zlib") -> bytes:
    """Encode one chunk of rows (as per-column arrays) into a wire frame."""
    blocks = {}
    for name, values in columns.items():
        try:
            sql_type = sql_types[name]
        except KeyError:
            raise TransferError(f"no SQL type known for column {name!r}") from None
        blocks[name] = ColumnBlock.from_values(np.asarray(values), sql_type,
                                               codec=codec)
    return frame_of_blocks(blocks)


def frame_of_blocks(blocks: Mapping[str, ColumnBlock]) -> bytes:
    """Frame column blocks as they are, in ``blocks`` order: each block
    travels as its own :meth:`~repro.storage.column.ColumnBlock.to_bytes`."""
    if not blocks:
        raise TransferError("cannot encode an empty frame")
    parts = [struct.pack("<I", len(blocks))]
    for name, block in blocks.items():
        block_bytes = block.to_bytes()
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise TransferError(f"column name too long: {name!r}")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<Q", len(block_bytes)))
        parts.append(block_bytes)
    return b"".join(parts)


def _parse_frames(payload: bytes) -> list[dict[str, ColumnBlock]]:
    """Split a concatenation of frames into per-frame column blocks, still
    compressed."""
    frames: list[dict[str, ColumnBlock]] = []
    view = memoryview(payload)  # block slices without copying the payload
    offset = 0
    total = len(payload)
    while offset < total:
        if offset + 4 > total:
            raise TransferError("truncated frame header")
        (column_count,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        if column_count == 0 or column_count > 10_000:
            raise TransferError(f"implausible column count {column_count}")
        frame: dict[str, ColumnBlock] = {}
        for _ in range(column_count):
            if offset + 2 > total:
                raise TransferError("truncated column name length")
            (name_length,) = struct.unpack_from("<H", payload, offset)
            offset += 2
            name = payload[offset:offset + name_length].decode("utf-8")
            offset += name_length
            if offset + 8 > total:
                raise TransferError("truncated block length")
            (block_length,) = struct.unpack_from("<Q", payload, offset)
            offset += 8
            block_bytes = view[offset:offset + block_length]
            if len(block_bytes) != block_length:
                raise TransferError("truncated column block")
            offset += block_length
            frame[name] = ColumnBlock.from_bytes(block_bytes)
        frames.append(frame)
    return frames


def decode_frames(payload: bytes) -> list[dict[str, np.ndarray]]:
    """Decode a concatenation of frames back into per-chunk column dicts."""
    return [{name: block.values() for name, block in frame.items()}
            for frame in _parse_frames(payload)]


def validate_frame(frame: bytes) -> None:
    """Structurally validate that ``frame`` is exactly one intact wire frame.

    Walks the length-prefixed layout without decompressing any block, so a
    receiver can reject a torn (truncated or trailing-garbage) frame at
    ``send_chunk`` time — before staging it — for the cost of a few struct
    reads.  Raises :class:`TransferError` on any structural defect.
    """
    total = len(frame)
    if total < 4:
        raise TransferError(f"torn frame: {total} bytes is shorter than a frame header")
    (column_count,) = struct.unpack_from("<I", frame, 0)
    if column_count == 0 or column_count > 10_000:
        raise TransferError(f"torn frame: implausible column count {column_count}")
    offset = 4
    for _ in range(column_count):
        if offset + 2 > total:
            raise TransferError("torn frame: truncated column name length")
        (name_length,) = struct.unpack_from("<H", frame, offset)
        offset += 2 + name_length
        if offset + 8 > total:
            raise TransferError("torn frame: truncated block length")
        (block_length,) = struct.unpack_from("<Q", frame, offset)
        offset += 8 + block_length
        if offset > total:
            raise TransferError("torn frame: truncated column block")
    if offset != total:
        raise TransferError(f"torn frame: {total - offset} trailing bytes after last block")


def frames_to_matrix(payload: bytes, column_order: list[str]) -> np.ndarray:
    """Parse staged frames into a single float64 matrix (rows x columns).

    This is the "convert to an R object" step: the per-stream chunks are
    concatenated in arrival order and the requested columns become matrix
    columns in the caller's declared order.  The matrix is column-major
    (Fortran order), R's layout: the row count comes from the block
    headers, so each block decodes straight into a contiguous slice of its
    column in the one preallocated matrix.
    """
    frames = _parse_frames(payload)
    row_counts = []
    for frame in frames:
        missing = [c for c in column_order if c not in frame]
        if missing:
            raise TransferError(f"frame missing columns {missing}")
        counts = {frame[name].row_count for name in column_order}
        if len(counts) != 1:
            raise TransferError(f"frame columns disagree on row count: {counts}")
        row_counts.append(counts.pop())
    matrix = np.empty((sum(row_counts), len(column_order)), dtype=np.float64,
                      order="F")
    start = 0
    for frame, rows in zip(frames, row_counts):
        for j, name in enumerate(column_order):
            matrix[start:start + rows, j] = frame[name].values()
        start += rows
    return matrix


def frames_to_columns(payload: bytes, column_order: list[str]) -> dict[str, np.ndarray]:
    """Parse staged frames into per-column arrays (mixed types allowed).

    The dframe variant of :func:`frames_to_matrix`: string columns stay
    object arrays instead of being forced into a float matrix.
    """
    chunks = decode_frames(payload)
    if not chunks:
        return {name: np.empty(0) for name in column_order}
    out: dict[str, list[np.ndarray]] = {name: [] for name in column_order}
    for chunk in chunks:
        missing = [c for c in column_order if c not in chunk]
        if missing:
            raise TransferError(f"frame missing columns {missing}")
        for name in column_order:
            out[name].append(np.asarray(chunk[name]))
    return {name: np.concatenate(pieces) for name, pieces in out.items()}
