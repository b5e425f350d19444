"""Distributed lists: partitioned sequences of arbitrary Python objects.

``dlist(npartitions=)`` from Table 1, for irregular collections that are
not matrices or frames.  The solvers here do not use it: the random forest
grows its trees as the results of per-partition ``map_partitions``
tasks.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Sequence

from repro.dr.dobject import DistributedObject
from repro.errors import PartitionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dr.session import DRSession

__all__ = ["DList"]


class DList(DistributedObject):
    """A partitioned distributed list."""

    kind = "dlist"

    def __init__(self, session: "DRSession", npartitions: int,
                 worker_assignment: Sequence[int] | None = None) -> None:
        super().__init__(session, npartitions, worker_assignment)

    def fill_partition(self, index: int, items: list) -> None:
        if not isinstance(items, list):
            raise PartitionError("dlist partitions are Python lists")
        nbytes = sum(sys.getsizeof(item) for item in items)
        self._store(index, list(items), len(items), None, nbytes)

    def append_to_partition(self, index: int, item: Any) -> None:
        """Append one item (creates the partition if empty)."""
        info = self._info(index)
        current = self.get_partition(index) if info.filled else []
        self.fill_partition(index, current + [item])

    def collect(self) -> list:
        """Concatenate all partitions in index order."""
        out: list = []
        for index in range(self.npartitions):
            if self.partitions[index].filled:
                out.extend(self.get_partition(index))
        return out

    @property
    def total_items(self) -> int:
        return sum(p.nrow or 0 for p in self.partitions)
