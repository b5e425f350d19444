"""Row groups: horizontal slices of a table segment, stored column-wise.

A :class:`RowGroup` holds one :class:`~repro.storage.column.ColumnBlock` per
table column, all with the same row count.  Segments append row groups as
data is loaded; scans iterate row groups and decode only the referenced
columns — the essential columnar-store behaviour the paper's transfer and
prediction mechanisms exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import StorageError
from repro.storage.column import ColumnBlock
from repro.storage.encoding import ColumnSchema

__all__ = ["RowGroup"]


@dataclass
class RowGroup:
    """One horizontal slice of a segment, as per-column blocks."""

    columns: dict[str, ColumnBlock] = field(default_factory=dict)

    @classmethod
    def from_arrays(
        cls,
        schema: list[ColumnSchema],
        arrays: dict[str, np.ndarray],
        codec: str = "zlib",
    ) -> "RowGroup":
        """Build a row group from per-column arrays matching ``schema``."""
        if not schema:
            raise StorageError("row group requires a non-empty schema")
        missing = [c.name for c in schema if c.name not in arrays]
        if missing:
            raise StorageError(f"missing arrays for columns: {missing}")
        lengths = {c.name: len(np.asarray(arrays[c.name])) for c in schema}
        if len(set(lengths.values())) != 1:
            raise StorageError(f"ragged column arrays: {lengths}")
        blocks = {
            c.name: ColumnBlock.from_values(arrays[c.name], c.sql_type, codec=codec)
            for c in schema
        }
        return cls(columns=blocks)

    @property
    def row_count(self) -> int:
        if not self.columns:
            return 0
        return next(iter(self.columns.values())).row_count

    @property
    def compressed_size(self) -> int:
        """Total on-disk bytes across all column blocks."""
        return sum(block.compressed_size for block in self.columns.values())

    def block(self, column: str) -> ColumnBlock:
        try:
            return self.columns[column]
        except KeyError:
            raise StorageError(f"row group has no column {column!r}") from None

    def read(self, columns: list[str] | None = None) -> dict[str, np.ndarray]:
        """Decode the requested columns (all columns when ``None``)."""
        names = list(self.columns) if columns is None else columns
        out = {}
        for name in names:
            out[name] = self.block(name).values()
        return out

    def might_match(self, ranges: dict, constrained: list[str] | None = None) -> bool:
        """Zone-map test: can any row satisfy the per-column envelopes?

        ``ranges`` maps column names to objects with ``low``/``high``
        attributes (:class:`~repro.vertica.pruning.ColumnRange`); columns
        absent from this row group contribute no constraint.  False means
        the whole row group can be skipped without decompressing a block.
        """
        names = constrained if constrained is not None else list(ranges)
        for name in names:
            block = self.columns.get(name)
            if block is None:
                continue
            envelope = ranges[name]
            if not block.might_contain(envelope.low, envelope.high):
                return False
        return True

    def discard(self) -> None:
        """Release whatever backs this row group once nothing can read it
        any more.  In-memory blocks go with the object; file-backed row
        groups (:mod:`repro.storage.files`) remove their file."""

    def validate(self) -> None:
        """Check structural invariants; raises :class:`StorageError` if broken."""
        counts = {name: blk.row_count for name, blk in self.columns.items()}
        if counts and len(set(counts.values())) != 1:
            raise StorageError(f"row group column counts diverge: {counts}")
