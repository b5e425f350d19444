"""Distributed arrays.

``DArray(session, npartitions=3)`` is the paper's flexible darray (§4,
Figure 8): only the partition *count* is declared, and each partition's
shape becomes known when data is loaded, e.g. one partition per Vertica
table segment.  Partitions are row blocks of float64 values: they may differ
in row count but must agree on column count ("if data is row partitioned,
each partition may have variable number of rows, but the same number of
columns", §4).  Each is stored column-major (Fortran order), R's matrix
layout.

Distributed R first declared arrays as a grid of equal, zero-filled blocks
(``darray(dim=, blocks=)``, Figure 7); the paper replaced that style with
this one, and nothing here implements it.

Helper functions mirror Table 1: :func:`partitionsize` and :func:`clone`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.dr.dobject import DistributedObject, check_partition
from repro.errors import PartitionError

__all__ = ["DArray", "partitionsize", "clone"]


class DArray(DistributedObject):
    """A row-partitioned distributed float64 matrix."""

    kind = "darray"

    # -- shape and structure -----------------------------------------------------

    @property
    def ncol(self) -> int:
        filled = [p for p in self.partitions if p.filled]
        if not filled:
            raise PartitionError("darray has no filled partitions yet")
        return filled[0].ncol

    @property
    def nrow(self) -> int:
        if not self.is_filled:
            raise PartitionError("darray has unfilled partitions; nrow unknown")
        return sum(p.nrow for p in self.partitions)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrow, self.ncol)

    def partition_shapes(self) -> list[tuple[int, int] | None]:
        """Per-partition (nrow, ncol), ``None`` for unfilled partitions."""
        return [
            (p.nrow, p.ncol) if p.filled else None for p in self.partitions
        ]

    # -- filling ------------------------------------------------------------------

    def fill_partition(self, index: int, values: np.ndarray) -> None:
        """Load one partition: any row count, but the column count must
        match the other filled partitions.  The partition is stored
        column-major (Fortran order), so each column is contiguous for the
        solvers' kernels."""
        array = np.asarray(values, dtype=np.float64)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        if array.ndim != 2:
            raise PartitionError(f"darray partitions are 2-D, got ndim={array.ndim}")
        array = np.asfortranarray(array)
        for other in self.partitions:
            if other.index != index and other.filled and other.ncol != array.shape[1]:
                raise PartitionError(
                    f"partition {index} has {array.shape[1]} columns but "
                    f"partition {other.index} has {other.ncol}; row-partitioned "
                    "arrays must agree on column count"
                )
        self._store(index, array, array.shape[0], array.shape[1], array.nbytes)

    def fill_from(self, full_array: np.ndarray) -> "DArray":
        """Split a full array's rows evenly across partitions (test/demo
        helper)."""
        array = np.asarray(full_array, dtype=np.float64)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        boundaries = np.linspace(0, array.shape[0], self.npartitions + 1).astype(int)
        for index in range(self.npartitions):
            self.fill_partition(index, array[boundaries[index]:boundaries[index + 1]])
        return self

    # -- materialization ------------------------------------------------------------

    def collect(self) -> np.ndarray:
        """Assemble the full array on the master, partitions in row order."""
        if not self.is_filled:
            raise PartitionError("cannot collect a darray with unfilled partitions")
        return np.vstack([self.get_partition(i) for i in range(self.npartitions)])

    # -- updates -----------------------------------------------------------------

    def update_partitions(self, fn: Callable, *others: DistributedObject) -> "DArray":
        """Replace each partition with ``fn(index, partition, *other_parts)``."""
        self._check_copartitioned(others)

        def task(index: int) -> None:
            args = [self.get_partition(index)]
            for other in others:
                args.append(self._local_partition(other, index, relative_to=self))
            result = np.asarray(fn(index, *args), dtype=np.float64)
            if result.ndim == 1:
                result = result.reshape(-1, 1)
            self.fill_partition(index, result)
            return None

        self.session.run_partition_tasks(
            [(self.worker_of(i), task, i) for i in range(self.npartitions)]
        )
        return self


def partitionsize(
    array: DArray, index: int | None = None
) -> tuple[int, int] | np.ndarray:
    """Table 1's ``partitionsize(A, i)``: the size of partition ``i``, or an
    ``npartitions x 2`` matrix of all partition sizes when ``i`` is omitted."""
    if index is not None:
        shape = array.partition_shapes()[check_partition(index, array.npartitions)]
        if shape is None:
            raise PartitionError(f"partition {index} is not filled")
        return shape
    shapes = array.partition_shapes()
    if any(s is None for s in shapes):
        raise PartitionError("array has unfilled partitions")
    return np.asarray(shapes, dtype=np.int64)


def clone(array: DArray, nrow: int | None = None, ncol: int | None = None,
          fill: float = 0.0) -> DArray:
    """Table 1's ``clone(A)``: a new darray with the same partition count,
    co-located partitions, and (by default) the same per-partition shape.

    ``ncol``/``nrow`` override the per-partition shape while keeping the
    partition structure, e.g. ``clone(X, ncol=1)`` builds a co-located
    response vector for regression (Figure 9).
    """
    if (nrow is not None and nrow < 0) or (ncol is not None and ncol < 0):
        raise PartitionError(
            f"clone() nrow and ncol must be >= 0, got nrow={nrow}, ncol={ncol}")
    if not array.is_filled:
        raise PartitionError("clone() requires a fully filled source array")
    assignment = [array.worker_of(i) for i in range(array.npartitions)]
    result = DArray(array.session, npartitions=array.npartitions,
                    worker_assignment=assignment)
    for index in range(array.npartitions):
        part_rows, part_cols = array.partitions[index].nrow, array.partitions[index].ncol
        rows = part_rows if nrow is None else int(nrow)
        cols = part_cols if ncol is None else int(ncol)
        result.fill_partition(index, np.full((rows, cols), fill))
    return result
