"""The Write-Optimized Store: per-segment trickle-insert staging.

Encoding a compressed rowgroup per INSERT statement would make trickle
loads quadratically slow; Vertica instead lands small INSERTs in an
uncompressed in-memory WOS and lets the Tuple Mover batch-convert them to
ROS rowgroups later (*moveout*).  Here the WOS is a list of immutable
:class:`WosBatch` objects — plain column arrays, one per stored column —
appended under the owning segment's mutation lock.  Scans read the
batches visible at their snapshot as **one** batch after the ROS units,
cut at the row group boundaries moveout uses; moveout flushes a *prefix*
of the list — never the middle — into ROS units that keep each batch's
epoch as a run, so the global scan order (ROS units, then the remaining
WOS) and the batches a scan yields are preserved across a flush.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WosBatch"]


class WosBatch:
    """One committed trickle-insert batch: uncompressed column arrays.

    The arrays carry the full stored schema (user columns plus the hidden
    ``_rowid``) and are never mutated after construction — scans
    concatenate them into one batch, and moveout re-encodes them wholesale.
    """

    __slots__ = ("epoch", "arrays", "rows")

    def __init__(self, epoch: int, arrays: dict[str, np.ndarray]) -> None:
        self.epoch = epoch
        self.arrays = arrays
        self.rows = len(next(iter(arrays.values()))) if arrays else 0

    def read(self, names: list[str]) -> dict[str, np.ndarray]:
        return {name: self.arrays[name] for name in names}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WosBatch(epoch={self.epoch}, rows={self.rows})"
