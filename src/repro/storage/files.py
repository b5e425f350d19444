"""On-disk segment files.

Vertica is a *disk-based* columnar store, so a deployment started with a
``data_dir`` really keeps its read-optimized storage on disk: a
:class:`SegmentFileWriter` serializes a sequence of row groups into a single
file with a footer index, and :class:`SegmentFile` hands them back as
ordinary :class:`~repro.storage.rowgroup.RowGroup` objects whose column
blocks are read from the file each time they are used — a scan, a zone-map
test or a mergeout treats them exactly like in-memory row groups.

File layout::

    magic "RSEG1"
    repeated: [u32 block_index_entry_count][row group blocks ...]
    footer: json index (column order, per-rowgroup offsets) + footer length + magic
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import StorageError
from repro.storage.column import ColumnBlock
from repro.storage.encoding import ColumnSchema, SqlType
from repro.storage.rowgroup import RowGroup

__all__ = ["SegmentFile", "SegmentFileWriter"]

_MAGIC = b"RSEG1"
_FOOTER_MAGIC = b"RFTR1"


@dataclass
class _RowGroupEntry:
    offset: int
    row_count: int
    blocks: dict[str, tuple[int, int]]  # column -> (offset, length)


class SegmentFileWriter:
    """Streams row groups into a segment file, then finalizes the footer."""

    def __init__(self, path: str | os.PathLike, schema: list[ColumnSchema]) -> None:
        self.path = Path(path)
        self.schema = list(schema)
        self._entries: list[_RowGroupEntry] = []
        self._fh = open(self.path, "wb")
        self._fh.write(_MAGIC)
        self._closed = False

    def append(self, rowgroup: RowGroup) -> None:
        """Write one row group's blocks and record their offsets."""
        if self._closed:
            raise StorageError("writer already closed")
        rowgroup.validate()
        entry = _RowGroupEntry(
            offset=self._fh.tell(), row_count=rowgroup.row_count, blocks={}
        )
        for column in self.schema:
            block_bytes = rowgroup.block(column.name).to_bytes()
            entry.blocks[column.name] = (self._fh.tell(), len(block_bytes))
            self._fh.write(block_bytes)
        self._entries.append(entry)

    def close(self) -> None:
        """Write the footer index and close the file."""
        if self._closed:
            return
        footer = {
            "schema": [
                {"name": c.name, "type": c.sql_type.value} for c in self.schema
            ],
            "rowgroups": [
                {
                    "offset": e.offset,
                    "rows": e.row_count,
                    "blocks": {k: list(v) for k, v in e.blocks.items()},
                }
                for e in self._entries
            ],
        }
        footer_bytes = json.dumps(footer).encode("utf-8")
        self._fh.write(footer_bytes)
        self._fh.write(struct.pack("<q", len(footer_bytes)))
        self._fh.write(_FOOTER_MAGIC)
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "SegmentFileWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SegmentFile:
    """Read-side view of a segment file written by :class:`SegmentFileWriter`."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise StorageError(f"segment file does not exist: {self.path}")
        self.schema, self._entries = self._read_footer()

    def _read_footer(self) -> tuple[list[ColumnSchema], list[_RowGroupEntry]]:
        size = self.path.stat().st_size
        tail = len(_FOOTER_MAGIC) + 8
        if size < len(_MAGIC) + tail:
            raise StorageError(f"segment file too small: {self.path}")
        with open(self.path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise StorageError(f"bad segment magic in {self.path}")
            fh.seek(size - tail)
            footer_len_raw = fh.read(8)
            (footer_len,) = struct.unpack("<q", footer_len_raw)
            if fh.read(len(_FOOTER_MAGIC)) != _FOOTER_MAGIC:
                raise StorageError(f"bad footer magic in {self.path}")
            if footer_len <= 0 or footer_len > size:
                raise StorageError(f"corrupt footer length in {self.path}")
            fh.seek(size - tail - footer_len)
            footer = json.loads(fh.read(footer_len).decode("utf-8"))
        schema = [
            ColumnSchema(item["name"], SqlType(item["type"]))
            for item in footer["schema"]
        ]
        entries = [
            _RowGroupEntry(
                offset=item["offset"],
                row_count=item["rows"],
                blocks={k: (v[0], v[1]) for k, v in item["blocks"].items()},
            )
            for item in footer["rowgroups"]
        ]
        return schema, entries

    @property
    def rowgroup_count(self) -> int:
        return len(self._entries)

    @property
    def row_count(self) -> int:
        return sum(e.row_count for e in self._entries)

    def _locate(self, rowgroup_index: int, column: str) -> tuple[int, int, int]:
        """``(offset, length, rows)`` of one column block, from the footer."""
        try:
            entry = self._entries[rowgroup_index]
        except IndexError:
            raise StorageError(
                f"row group {rowgroup_index} out of range in {self.path}"
            ) from None
        try:
            offset, length = entry.blocks[column]
        except KeyError:
            raise StorageError(f"no column {column!r} in {self.path}") from None
        return offset, length, entry.row_count

    def read_block(self, rowgroup_index: int, column: str) -> ColumnBlock:
        """Read one column block from disk."""
        offset, length, _ = self._locate(rowgroup_index, column)
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            data = fh.read(length)
        if len(data) != length:
            raise StorageError(f"short read of block {column!r} in {self.path}")
        return ColumnBlock.from_bytes(data)

    def read_rowgroup(self, rowgroup_index: int, columns: list[str] | None = None) -> RowGroup:
        """One row group (optionally a column subset), blocks left on disk."""
        names = columns if columns is not None else [c.name for c in self.schema]
        return _FileRowGroup(self, rowgroup_index, names)

    def iter_rowgroups(self, columns: list[str] | None = None) -> Iterator[RowGroup]:
        """Yield row groups in file order."""
        for index in range(self.rowgroup_count):
            yield self.read_rowgroup(index, columns)


class _FileBlock:
    """A column block left in its segment file.

    Row count and size come from the footer; everything else a
    :class:`ColumnBlock` offers (values, zone map, ...) reads the block.
    Nothing is cached, so a scan holds one decoded block at a time.
    """

    __slots__ = ("_file", "_index", "_column", "row_count", "compressed_size")

    def __init__(self, segment_file: SegmentFile, index: int, column: str) -> None:
        self._file = segment_file
        self._index = index
        self._column = column
        _, self.compressed_size, self.row_count = segment_file._locate(index, column)

    def __getattr__(self, name: str):
        if name.startswith("_"):  # an unset slot, not a block attribute
            raise AttributeError(name)
        return getattr(self._file.read_block(self._index, self._column), name)


class _FileRowGroup(RowGroup):
    """A row group whose blocks live in a segment file."""

    def __init__(self, segment_file: SegmentFile, index: int,
                 names: list[str]) -> None:
        super().__init__(columns={
            name: _FileBlock(segment_file, index, name) for name in names
        })
        self._path = segment_file.path

    def discard(self) -> None:
        """Unlink the backing file (shared by the row groups written with
        it; they are only ever discarded together)."""
        self._path.unlink(missing_ok=True)
