"""The Write-Optimized Store: per-segment trickle-insert staging.

Encoding a compressed rowgroup per INSERT statement would make trickle
loads quadratically slow; Vertica instead lands small INSERTs in a
row-oriented in-memory WOS and lets the Tuple Mover batch-convert them to
ROS rowgroups later (*moveout*).  Here the WOS is a list of immutable
:class:`WosBatch` objects appended under the owning segment's mutation
lock; scans union the list after the ROS rowgroups, and moveout flushes a
*prefix* of the list — never the middle — so the global scan order
(ROS rowgroups, then remaining WOS batches) is preserved bit for bit
across a flush.
"""

from __future__ import annotations

import numpy as np

from repro.vertica.pipeline import batch_nbytes

__all__ = ["WosBatch"]


class WosBatch:
    """One committed trickle-insert batch: uncompressed column arrays.

    The arrays carry the full stored schema (user columns plus the hidden
    ``_rowid``) and are never mutated after construction — scans slice
    them by numpy views, and moveout re-encodes them wholesale.
    """

    __slots__ = ("epoch", "arrays", "rows", "nbytes")

    def __init__(self, epoch: int, arrays: dict[str, np.ndarray]) -> None:
        self.epoch = epoch
        self.arrays = arrays
        self.rows = len(next(iter(arrays.values()))) if arrays else 0
        self.nbytes = batch_nbytes(arrays)

    def read(self, names: list[str]) -> dict[str, np.ndarray]:
        return {name: self.arrays[name] for name in names}

    def might_match(self, ranges: dict, constrained: list[str]) -> bool:
        """The scan loop's zone-map test.  A WOS batch keeps no zone maps,
        so it is never pruned."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WosBatch(epoch={self.epoch}, rows={self.rows})"
