"""Distributed arrays.

Two declaration styles, matching the paper's evolution (§4):

* **Legacy, equal blocks** — ``DArray(session, dim=(6, 2), blocks=(2, 2))``:
  the array is a grid of fixed-size blocks, pre-materialized with zeros
  (Figure 7).  Every partition except the trailing edge has the same shape.
* **Flexible, unequal partitions** — ``DArray(session, npartitions=3)``:
  only the partition *count* is declared; shapes become known when data is
  loaded (e.g. from Vertica table segments, Figure 8).  Adjacent-partition
  conformability is enforced on fill: row-partitioned arrays may vary in row
  count but must agree on column count (and symmetrically for
  ``partition_by="column"`` — §4 notes data "is partitioned by rows,
  columns, or blocks").

Flexible arrays also support numpy-style arithmetic: ``A + B``, ``A * 2``,
``-A``, ``A.dot_vector(v)``, ``A.sum()`` — each elementwise operation runs
partition-parallel and yields a co-located result array.

Helper functions mirror Table 1: :func:`partitionsize` and :func:`clone`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from repro.dr.dobject import DistributedObject
from repro.errors import PartitionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dr.session import DRSession

__all__ = ["DArray", "partitionsize", "clone", "repartition"]

# Operand of the elementwise operators: a co-partitioned array or a scalar.
Operand = Union["DArray", int, float, np.integer, np.floating]


class DArray(DistributedObject):
    """A row-partitioned (or block-partitioned) distributed numeric array."""

    kind = "darray"

    def __init__(
        self,
        session: "DRSession",
        npartitions: int | None = None,
        dim: tuple[int, int] | None = None,
        blocks: tuple[int, int] | None = None,
        dtype: np.dtype | type = np.float64,
        worker_assignment: Sequence[int] | None = None,
        partition_by: str = "row",
    ) -> None:
        self.dtype = np.dtype(dtype)
        if partition_by not in ("row", "column"):
            raise PartitionError(
                f"partition_by must be 'row' or 'column', got {partition_by!r}"
            )
        self.partition_by = partition_by
        if (npartitions is None) == (dim is None):
            raise PartitionError(
                "declare a darray with either npartitions= (flexible) or "
                "dim=/blocks= (legacy equal blocks)"
            )
        if dim is not None:
            if blocks is None:
                raise PartitionError("legacy declaration requires blocks=")
            if partition_by != "row":
                raise PartitionError(
                    "legacy block arrays do not take partition_by"
                )
            self._init_legacy(session, dim, blocks, worker_assignment)
        else:
            self._block_grid = None
            self._declared_dim = None
            super().__init__(session, npartitions, worker_assignment)

    def _init_legacy(self, session: "DRSession", dim: tuple[int, int],
                     blocks: tuple[int, int],
                     worker_assignment: Sequence[int] | None) -> None:
        rows, cols = int(dim[0]), int(dim[1])
        block_rows, block_cols = int(blocks[0]), int(blocks[1])
        if rows < 1 or cols < 1 or block_rows < 1 or block_cols < 1:
            raise PartitionError(f"bad darray dim={dim} blocks={blocks}")
        if block_rows > rows or block_cols > cols:
            raise PartitionError("block size exceeds array dimension")
        row_starts = list(range(0, rows, block_rows))
        col_starts = list(range(0, cols, block_cols))
        grid = []
        for r0 in row_starts:
            for c0 in col_starts:
                grid.append((
                    r0, c0,
                    min(block_rows, rows - r0),
                    min(block_cols, cols - c0),
                ))
        self._block_grid = grid
        self._declared_dim = (rows, cols)
        super().__init__(session, len(grid), worker_assignment)
        # Legacy arrays are materialized at declaration, zero-filled.
        for index, (_, _, nrow, ncol) in enumerate(grid):
            zeros = np.zeros((nrow, ncol), dtype=self.dtype, order="F")
            self._store(index, zeros, nrow, ncol, zeros.nbytes)

    # -- shape and structure -----------------------------------------------------

    @property
    def is_legacy(self) -> bool:
        return self._block_grid is not None

    @property
    def ncol(self) -> int:
        if self.is_legacy:
            return self._declared_dim[1]
        if self.partition_by == "column":
            if not self.is_filled:
                raise PartitionError(
                    "darray has unfilled partitions; ncol unknown")
            return sum(p.ncol for p in self.partitions)
        filled = [p for p in self.partitions if p.filled]
        if not filled:
            raise PartitionError("darray has no filled partitions yet")
        return filled[0].ncol

    @property
    def nrow(self) -> int:
        if self.is_legacy:
            return self._declared_dim[0]
        if self.partition_by == "column":
            filled = [p for p in self.partitions if p.filled]
            if not filled:
                raise PartitionError("darray has no filled partitions yet")
            return filled[0].nrow
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
        """Load one partition, enforcing conformability.

        Flexible arrays: any row count, but the column count must match the
        other filled partitions ("if data is row partitioned, each partition
        may have variable number of rows, but the same number of columns",
        §4).  Legacy arrays: the shape must match the declared block exactly.
        Every partition is stored column-major (Fortran order), R's matrix
        layout, so each column is contiguous for the solvers' kernels.
        """
        array = np.asarray(values, dtype=self.dtype)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        if array.ndim != 2:
            raise PartitionError(f"darray partitions are 2-D, got ndim={array.ndim}")
        array = np.asfortranarray(array)
        info = self._info(index)
        if self.is_legacy:
            _, _, nrow, ncol = self._block_grid[index]
            if array.shape != (nrow, ncol):
                raise PartitionError(
                    f"legacy block {index} must be {(nrow, ncol)}, got {array.shape}"
                )
        elif self.partition_by == "row":
            for other in self.partitions:
                if other.index != index and other.filled and other.ncol != array.shape[1]:
                    raise PartitionError(
                        f"partition {index} has {array.shape[1]} columns but "
                        f"partition {other.index} has {other.ncol}; row-partitioned "
                        "arrays must agree on column count"
                    )
        else:
            for other in self.partitions:
                if other.index != index and other.filled and other.nrow != array.shape[0]:
                    raise PartitionError(
                        f"partition {index} has {array.shape[0]} rows but "
                        f"partition {other.index} has {other.nrow}; column-partitioned "
                        "arrays must agree on row count"
                    )
        self._store(index, array, array.shape[0], array.shape[1], array.nbytes)
        del info  # info refreshed inside _store

    def fill_from(self, full_array: np.ndarray) -> "DArray":
        """Split a full array evenly across partitions (test/demo helper)."""
        array = np.asarray(full_array, dtype=self.dtype)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        if self.is_legacy:
            if array.shape != self._declared_dim:
                raise PartitionError(
                    f"array shape {array.shape} != declared {self._declared_dim}"
                )
            for index, (r0, c0, nrow, ncol) in enumerate(self._block_grid):
                self.fill_partition(index, array[r0:r0 + nrow, c0:c0 + ncol])
            return self
        axis_length = array.shape[0] if self.partition_by == "row" else array.shape[1]
        boundaries = np.linspace(0, axis_length, self.npartitions + 1).astype(int)
        for index in range(self.npartitions):
            start, stop = boundaries[index], boundaries[index + 1]
            if self.partition_by == "row":
                self.fill_partition(index, array[start:stop])
            else:
                self.fill_partition(index, array[:, start:stop])
        return self

    # -- materialization ------------------------------------------------------------

    def collect(self) -> np.ndarray:
        """Assemble the full array on the master (row order for flexible
        arrays; block grid order for legacy arrays)."""
        if not self.is_filled:
            raise PartitionError("cannot collect a darray with unfilled partitions")
        if self.is_legacy:
            rows, cols = self._declared_dim
            out = np.zeros((rows, cols), dtype=self.dtype)
            for index, (r0, c0, nrow, ncol) in enumerate(self._block_grid):
                out[r0:r0 + nrow, c0:c0 + ncol] = self.get_partition(index)
            return out
        parts = [self.get_partition(i) for i in range(self.npartitions)]
        if self.partition_by == "column":
            return np.hstack(parts)
        return np.vstack(parts)

    # -- updates -----------------------------------------------------------------

    def update_partitions(self, fn: Callable, *others: DistributedObject) -> "DArray":
        """Replace each partition with ``fn(index, partition, *other_parts)``."""
        self._check_copartitioned(others)

        def task(index: int) -> None:
            args = [self.get_partition(index)]
            for other in others:
                args.append(self._local_partition(other, index, relative_to=self))
            result = np.asarray(fn(index, *args), dtype=self.dtype)
            if result.ndim == 1:
                result = result.reshape(-1, 1)
            self.fill_partition(index, result)
            return None

        self.session.run_partition_tasks(
            [(self.worker_of(i), task, i) for i in range(self.npartitions)]
        )
        return self

    # -- numpy-style arithmetic (partition-parallel) --------------------------------

    def _binary_elementwise(self, other: Operand, op: Callable,
                            symbol: str) -> "DArray":
        """Elementwise op against a scalar or a co-partitioned darray."""
        if self.is_legacy:
            raise PartitionError("arithmetic supports flexible arrays")
        if not self.is_filled:
            raise PartitionError("arithmetic requires filled partitions")
        assignment = [self.worker_of(i) for i in range(self.npartitions)]
        result = DArray(self.session, npartitions=self.npartitions,
                        dtype=np.float64, worker_assignment=assignment,
                        partition_by=self.partition_by)
        if isinstance(other, DArray):
            if other.partition_shapes() != self.partition_shapes():
                raise PartitionError(
                    f"cannot {symbol} arrays with different partition shapes: "
                    f"{self.partition_shapes()} vs {other.partition_shapes()}"
                )

            def task(index: int, mine: np.ndarray, theirs: np.ndarray) -> None:
                result.fill_partition(index, op(np.asarray(mine, dtype=np.float64),
                                                np.asarray(theirs, dtype=np.float64)))

            self.map_partitions(task, other)
        elif isinstance(other, (int, float, np.integer, np.floating)):

            def scalar_task(index: int, mine: np.ndarray) -> None:
                scalar = float(other)  # type: ignore[arg-type]
                result.fill_partition(
                    index, op(np.asarray(mine, dtype=np.float64), scalar))

            self.map_partitions(scalar_task)
        else:
            raise PartitionError(
                f"cannot {symbol} a darray with {type(other).__name__}")
        return result

    def __add__(self, other: Operand) -> "DArray":
        return self._binary_elementwise(other, np.add, "+")

    def __radd__(self, other: Operand) -> "DArray":
        return self.__add__(other)

    def __sub__(self, other: Operand) -> "DArray":
        return self._binary_elementwise(other, np.subtract, "-")

    def __mul__(self, other: Operand) -> "DArray":
        return self._binary_elementwise(other, np.multiply, "*")

    def __rmul__(self, other: Operand) -> "DArray":
        return self.__mul__(other)

    def __truediv__(self, other: Operand) -> "DArray":
        return self._binary_elementwise(other, np.divide, "/")

    def __neg__(self) -> "DArray":
        return self._binary_elementwise(-1.0, np.multiply, "*")

    def dot_vector(self, vector: np.ndarray) -> "DArray":
        """Row-partitioned matrix-vector product: returns a co-located
        (n, 1) darray holding ``self @ vector``."""
        if self.is_legacy or self.partition_by != "row":
            raise PartitionError("dot_vector requires a row-partitioned array")
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if len(vector) != self.ncol:
            raise PartitionError(
                f"vector has {len(vector)} entries, array has {self.ncol} columns"
            )
        assignment = [self.worker_of(i) for i in range(self.npartitions)]
        result = DArray(self.session, npartitions=self.npartitions,
                        dtype=np.float64, worker_assignment=assignment)

        def task(index: int, mine: np.ndarray) -> None:
            result.fill_partition(
                index, (np.asarray(mine, dtype=np.float64) @ vector).reshape(-1, 1))

        self.map_partitions(task)
        return result

    def sum(self) -> float:
        """Distributed sum of all elements."""
        partials = self.map_partitions(
            lambda i, part: float(np.sum(np.asarray(part, dtype=np.float64))))
        return float(np.sum(partials))

    def mean(self) -> float:
        """Distributed mean of all elements."""
        partials = self.map_partitions(
            lambda i, part: (float(np.sum(np.asarray(part, dtype=np.float64))),
                             np.asarray(part).size))
        total = sum(p[0] for p in partials)
        count = sum(p[1] for p in partials)
        if count == 0:
            raise PartitionError("mean of an empty darray")
        return total / count



def partitionsize(
    array: DArray, index: int | None = None
) -> tuple[int, int] | np.ndarray:
    """Table 1's ``partitionsize(A, i)``: the size of partition ``i``, or an
    ``npartitions x 2`` matrix of all partition sizes when ``i`` is omitted."""
    if index is not None:
        shape = array.partition_shapes()[index]
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
    if array.is_legacy:
        raise PartitionError("clone() supports flexible (npartitions=) arrays")
    if not array.is_filled:
        raise PartitionError("clone() requires a fully filled source array")
    assignment = [array.worker_of(i) for i in range(array.npartitions)]
    result = DArray(
        array.session,
        npartitions=array.npartitions,
        dtype=array.dtype,
        worker_assignment=assignment,
        partition_by=array.partition_by,
    )
    for index in range(array.npartitions):
        part_rows, part_cols = array.partitions[index].nrow, array.partitions[index].ncol
        rows = part_rows if nrow is None else int(nrow)
        cols = part_cols if ncol is None else int(ncol)
        result.fill_partition(index, np.full((rows, cols), fill, dtype=array.dtype))
    return result


def repartition(array: DArray, npartitions: int) -> DArray:
    """Rebalance a row-partitioned darray into ``npartitions`` even pieces.

    The in-engine analog of the *uniform distribution* transfer policy:
    after a locality-preserving load of a skewed table, ``repartition``
    removes the stragglers before iterating.  Rows keep their global order.
    """
    if array.is_legacy:
        raise PartitionError("repartition supports flexible arrays")
    if array.partition_by != "row":
        raise PartitionError("repartition supports row-partitioned arrays")
    if not array.is_filled:
        raise PartitionError("repartition requires a fully filled array")
    if npartitions < 1:
        raise PartitionError("npartitions must be >= 1")
    total_rows = array.nrow
    boundaries = np.linspace(0, total_rows, npartitions + 1).astype(int)
    result = DArray(array.session, npartitions=npartitions, dtype=array.dtype)

    # Source partition row offsets (global row ranges per source partition).
    source_offsets = np.concatenate(
        [[0], np.cumsum([p.nrow for p in array.partitions])])

    for target in range(npartitions):
        start, stop = int(boundaries[target]), int(boundaries[target + 1])
        pieces: list[np.ndarray] = []
        for source in range(array.npartitions):
            src_start = int(source_offsets[source])
            src_stop = int(source_offsets[source + 1])
            lo = max(start, src_start)
            hi = min(stop, src_stop)
            if lo >= hi:
                continue
            part = np.asarray(array.get_partition(source))
            pieces.append(part[lo - src_start:hi - src_start])
            if result.worker_of(target) != array.worker_of(source):
                moved = pieces[-1].nbytes
                array.session.metrics.counter("dr_repartition_bytes").add(moved)
        if pieces:
            result.fill_partition(target, np.vstack(pieces))
        else:
            width = array.ncol
            result.fill_partition(target, np.empty((0, width), dtype=array.dtype))
    return result
