"""Distributed data frames: partitioned dicts of equal-length column arrays.

``dframe(npartitions=)`` from Table 1.  Unlike darrays, columns may have
mixed types (numeric and string); conformability requires every filled
partition to expose the same column names in the same order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.dr.dobject import DistributedObject
from repro.errors import PartitionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dr.session import DRSession

__all__ = ["DFrame"]


class DFrame(DistributedObject):
    """A row-partitioned distributed data frame."""

    kind = "dframe"

    def __init__(self, session: "DRSession", npartitions: int,
                 worker_assignment: Sequence[int] | None = None) -> None:
        super().__init__(session, npartitions, worker_assignment)
        self._columns: tuple[str, ...] | None = None

    @property
    def columns(self) -> tuple[str, ...]:
        if self._columns is None:
            raise PartitionError("dframe has no filled partitions yet")
        return self._columns

    def fill_partition(self, index: int, data: dict[str, np.ndarray]) -> None:
        """Load one partition from a column dict, checking conformability."""
        if not data:
            raise PartitionError("dframe partition requires at least one column")
        arrays = {name: np.atleast_1d(np.asarray(values)) for name, values in data.items()}
        lengths = {name: len(arr) for name, arr in arrays.items()}
        if len(set(lengths.values())) != 1:
            raise PartitionError(f"ragged dframe partition: {lengths}")
        names = tuple(arrays)
        with self._lock:
            if self._columns is None:
                self._columns = names
            elif self._columns != names:
                raise PartitionError(
                    f"partition {index} columns {names} != dframe columns "
                    f"{self._columns}"
                )
        rows = next(iter(lengths.values()))
        nbytes = sum(
            arr.nbytes if arr.dtype != object
            else sum(len(str(v)) for v in arr)
            for arr in arrays.values()
        )
        self._store(index, arrays, rows, len(names), int(nbytes))

    def collect(self) -> dict[str, np.ndarray]:
        """Concatenate all partitions into full column arrays."""
        if not self.is_filled:
            raise PartitionError("cannot collect a dframe with unfilled partitions")
        parts = [self.get_partition(i) for i in range(self.npartitions)]
        return {
            name: np.concatenate([p[name] for p in parts]) for name in self.columns
        }

    @property
    def nrow(self) -> int:
        if not self.is_filled:
            raise PartitionError("dframe has unfilled partitions; nrow unknown")
        return sum(p.nrow for p in self.partitions)

    def column_array(self, name: str) -> np.ndarray:
        """Collect a single column across partitions."""
        if name not in self.columns:
            raise PartitionError(f"dframe has no column {name!r}")
        return np.concatenate([
            self.get_partition(i)[name] for i in range(self.npartitions)
        ])
