"""The unified partition-fold solver kernel.

Every distributed solver in this package has the same shape — the
user-defined-aggregate contract of Bismarck ("Towards a Unified
Architecture for in-RDBMS Analytics") and MADlib: the master broadcasts
the current state, every partition computes a *partial* from its local
rows, the master *merges* the partials and takes a *step*, repeating
until *converged*.  :class:`PartitionFold` names that contract once and
:func:`fold_fit` executes it once, so DR fan-out, tracing spans, and
fault-site registration live in exactly one place instead of being
hand-rolled per algorithm (GLM/Newton, K-means/Lloyd, naive Bayes all
run through here).

:class:`LocalArray` is the smallest object satisfying the driver's data
contract: a plain in-process numpy array split into partitions.  It is
what ``REFRESH MODEL`` uses to re-fit warm-started models master-side,
and what the documentation examples run on without starting a session.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ModelError, PartitionError

__all__ = ["PartitionFold", "fold_fit", "per_class_sums", "LocalArray"]

#: The fault-injection site the solver driver perturbs once per
#: synchronized iteration (master-side failure between fan-outs).
#: Registered in :data:`repro.faults.sites.FAULT_SITES`.
FOLD_STEP_SITE = "ml.fold.step"


@runtime_checkable
class PartitionFold(Protocol):
    """The synchronized partition-fold contract :func:`fold_fit` drives.

    ``solver`` is a short name recorded on the ``ml.fold`` span.  One
    iteration is: broadcast ``state``, evaluate :meth:`partial` on every
    partition, :meth:`merge` the partials master-side, :meth:`step` to
    the next state, stop when :meth:`converged`.
    """

    solver: str

    def init_state(self) -> Any:
        """The state broadcast before the first iteration."""

    def partial(self, state: Any, index: int, partition: np.ndarray,
                *others: np.ndarray) -> Any:
        """One partition's contribution at the current state."""

    def merge(self, partials: list) -> Any:
        """Combine per-partition contributions master-side."""

    def step(self, state: Any, merged: Any, iteration: int) -> Any:
        """Advance the state by one solver step; returns the new state."""

    def converged(self, state: Any) -> bool:
        """Whether the driver should stop after this step."""


def _span(data: Any, name: str, **attrs: Any):
    """A tracer span on the data's session, or a no-op for local arrays."""
    session = getattr(data, "session", None)
    tracer = getattr(session, "tracer", None)
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **attrs)


def _perturb_step(data: Any, fold: Any, iteration: int) -> None:
    """Fire the per-iteration fault site when a plan is armed."""
    session = getattr(data, "session", None)
    faults = getattr(session, "faults", None)
    if faults is not None:
        faults.perturb(FOLD_STEP_SITE, solver=fold.solver,
                       iteration=iteration)


def fold_fit(data: Any, fold: PartitionFold, *others: Any,
             max_iterations: int = 1) -> Any:
    """Run a :class:`PartitionFold` to convergence and return its state.

    ``data`` is the partitioned input (a :class:`~repro.dr.darray.DArray`,
    a :class:`LocalArray` or a :class:`~repro.spark.RDD`); ``others`` are
    co-partitioned companions (e.g. the response vector) forwarded to
    :meth:`PartitionFold.partial` exactly as :meth:`map_partitions`
    forwards them.  The driver owns the fan-out, the convergence loop, the
    ``ml.fold`` / ``ml.fold.step`` spans, and the ``ml.fold.step`` fault
    site — solvers own only the math.
    """
    if max_iterations < 1:
        raise ModelError("fold_fit requires max_iterations >= 1")
    state = fold.init_state()
    with _span(data, "ml.fold", solver=fold.solver) as solve_span:
        for iteration in range(1, max_iterations + 1):
            with _span(data, "ml.fold.step", solver=fold.solver,
                       iteration=iteration):
                _perturb_step(data, fold, iteration)
                partials = data.map_partitions(
                    lambda index, *parts: fold.partial(state, index, *parts),
                    *others,
                )
                state = fold.step(state, fold.merge(partials), iteration)
            if fold.converged(state):
                break
        if solve_span is not None:
            solve_span.set(iterations=iteration)
    return state


def per_class_sums(labels: np.ndarray, values: np.ndarray,
                   n_classes: int) -> np.ndarray:
    """``(n_classes, d)`` sums of ``values``' rows grouped by ``labels``.

    One ``np.bincount(weights=)`` per column: the same row-order additions
    as ``np.add.at(sums, labels, values)``, so bit-identical to it, without
    its per-element dispatch.  On the carriers' column-major partitions
    each column is a contiguous read.  ``labels`` must lie in
    ``[0, n_classes)``.
    """
    sums = np.empty((n_classes, values.shape[1]))
    for j in range(values.shape[1]):
        sums[:, j] = np.bincount(labels, weights=values[:, j],
                                 minlength=n_classes)
    return sums


class LocalArray:
    """An in-process, single-machine stand-in for a row-partitioned darray.

    Implements exactly the surface the solvers and the fold driver consume —
    ``npartitions`` / ``nrow`` / ``ncol`` / ``map_partitions`` /
    ``get_partition`` / ``collect`` — over plain numpy storage, with
    ``session = None`` (no tracer, no fault plan, no workers).  Useful
    for master-side re-fits (``REFRESH MODEL``), tests, and docs.  Its
    partitions are column-major (Fortran-order) float64, like a darray's,
    so every carrier feeds the solvers the same memory layout.
    """

    session = None

    def __init__(self, values: np.ndarray | Sequence,
                 npartitions: int = 1) -> None:
        array = np.asarray(values, dtype=np.float64)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        if array.ndim != 2:
            raise PartitionError(
                f"LocalArray holds 2-D data, got ndim={array.ndim}")
        if npartitions < 1:
            raise PartitionError("npartitions must be >= 1")
        boundaries = np.linspace(0, len(array), npartitions + 1).astype(int)
        self._parts = [np.asfortranarray(array[boundaries[i]:boundaries[i + 1]])
                       for i in range(npartitions)]

    @property
    def npartitions(self) -> int:
        return len(self._parts)

    @property
    def nrow(self) -> int:
        return sum(len(part) for part in self._parts)

    @property
    def ncol(self) -> int:
        return self._parts[0].shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrow, self.ncol)

    @property
    def is_filled(self) -> bool:
        return True

    def partition_shapes(self) -> list[tuple[int, int]]:
        return [part.shape for part in self._parts]

    def worker_of(self, partition: int) -> int:
        return 0

    def get_partition(self, partition: int) -> np.ndarray:
        return self._parts[partition]

    def map_partitions(self, fn: Callable, *others: "LocalArray") -> list:
        """``fn(index, partition, *other_partitions)`` per partition,
        sequentially in partition order (same result order as the
        distributed engine's fan-out)."""
        for other in others:
            if other.npartitions != self.npartitions:
                raise PartitionError(
                    f"co-partitioning mismatch: {self.npartitions} vs "
                    f"{other.npartitions} partitions"
                )
        return [
            fn(index, self._parts[index],
               *[other._parts[index] for other in others])
            for index in range(self.npartitions)
        ]

    def collect(self) -> np.ndarray:
        return np.vstack(self._parts)

    def free(self) -> None:
        """No-op (kept for API parity with distributed objects)."""
