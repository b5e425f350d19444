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

A second driver, :func:`sgd_fit`, executes :class:`SgdFold` problems —
mini-batch stochastic gradient descent where each partition is one
mini-batch, visited in a *shuffle-once* order (Bismarck's trick: shuffle
the visit order a single time up front instead of re-shuffling every
epoch, which keeps runs deterministic and data in place).  Linear SVM
and low-rank matrix factorization train through it.

:class:`LocalArray` is the smallest object satisfying the drivers' data
contract: a plain in-process numpy array split into partitions.  It is
what ``REFRESH MODEL`` uses to re-fit warm-started models master-side,
and what the documentation examples run on without starting a session.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ModelError, PartitionError

__all__ = ["PartitionFold", "SgdFold", "fold_fit", "sgd_fit", "LocalArray"]

#: The fault-injection site the solver drivers perturb once per
#: synchronized iteration / SGD epoch (master-side failure between
#: fan-outs).  Registered in :data:`repro.faults.sites.FAULT_SITES`.
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


@runtime_checkable
class SgdFold(Protocol):
    """The mini-batch SGD contract :func:`sgd_fit` drives.

    Each partition is one mini-batch; :meth:`gradient` is evaluated at
    the current state on a single batch and :meth:`apply` folds it in
    immediately (sequential updates — the point of SGD).  ``epoch_end``
    runs once per sweep, which is where learning-rate schedules and
    convergence probes live.
    """

    solver: str

    def init_state(self) -> Any:
        """The state before the first mini-batch update."""

    def gradient(self, state: Any, index: int, partition: np.ndarray,
                 *others: np.ndarray) -> Any:
        """The (sub)gradient of one mini-batch at the current state."""

    def apply(self, state: Any, gradient: Any, step_index: int) -> Any:
        """Fold one mini-batch gradient into the state."""

    def epoch_end(self, state: Any, epoch: int) -> Any:
        """Per-sweep hook (schedules, convergence bookkeeping)."""

    def converged(self, state: Any) -> bool:
        """Whether the driver should stop after this epoch."""


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


def sgd_fit(data: Any, fold: SgdFold, *others: Any, epochs: int = 1,
            seed: int = 0) -> Any:
    """Run an :class:`SgdFold` for up to ``epochs`` sweeps over the data.

    Mini-batch = partition.  The visit order is drawn **once** from
    ``seed`` (shuffle-once) and reused every epoch, so two runs with the
    same seed apply the exact same update sequence.  Each sweep opens an
    ``ml.sgd.epoch`` span and fires the shared ``ml.fold.step`` fault
    site.
    """
    if epochs < 1:
        raise ModelError("sgd_fit requires epochs >= 1")
    for other in others:
        if other.npartitions != data.npartitions:
            raise ModelError(
                f"sgd_fit companions must be co-partitioned: "
                f"{other.npartitions} vs {data.npartitions} partitions"
            )
    order = np.random.default_rng(seed).permutation(data.npartitions)
    state = fold.init_state()
    step_index = 0
    with _span(data, "ml.fold", solver=fold.solver) as solve_span:
        for epoch in range(1, epochs + 1):
            with _span(data, "ml.sgd.epoch", solver=fold.solver, epoch=epoch):
                _perturb_step(data, fold, epoch)
                for index in order:
                    index = int(index)
                    batch = np.asarray(data.get_partition(index))
                    companions = [np.asarray(other.get_partition(index))
                                  for other in others]
                    gradient = fold.gradient(state, index, batch, *companions)
                    state = fold.apply(state, gradient, step_index)
                    step_index += 1
            state = fold.epoch_end(state, epoch)
            if fold.converged(state):
                break
        if solve_span is not None:
            solve_span.set(iterations=epoch)
    return state


class LocalArray:
    """An in-process, single-machine stand-in for a row-partitioned darray.

    Implements exactly the surface the solvers and fold drivers consume —
    ``npartitions`` / ``nrow`` / ``ncol`` / ``map_partitions`` /
    ``get_partition`` / ``collect`` — over plain numpy storage, with
    ``session = None`` (no tracer, no fault plan, no workers).  Useful
    for master-side re-fits (``REFRESH MODEL``), tests, and docs.
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
        self._parts = [array[boundaries[i]:boundaries[i + 1]]
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
