"""``hpdkmeans``: distributed K-means (Lloyd's algorithm).

Per iteration (the unit Figures 17 and 20 time): the master broadcasts the
current centers; every partition assigns its points to the nearest center
and returns partial sums, counts, and its share of the within-cluster sum of
squares; the master averages.  Communication per iteration is O(K·d),
independent of the row count — the same structure MLlib's K-means uses.
Figure 20's Spark side runs this very function over a
:class:`~repro.spark.RDD`, so the comparison is apples-to-apples by
construction.

The Lloyd iteration is expressed as a :class:`~repro.algorithms.fold.
PartitionFold` (:class:`_LloydFold`) executed by the shared
:func:`~repro.algorithms.fold.fold_fit` driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.fold import fold_fit, per_class_sums
from repro.dr.darray import DArray
from repro.errors import ModelError

__all__ = ["KMeansModel", "hpdkmeans", "assign_to_centers"]


@dataclass
class KMeansModel:
    """A fitted K-means clustering: centers plus fit statistics."""

    centers: np.ndarray           # (k, d)
    inertia: float                # total within-cluster sum of squares
    iterations: int
    converged: bool
    n_observations: int
    cluster_sizes: np.ndarray     # (k,)

    model_type = "kmeans"

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def n_features(self) -> int:
        return self.centers.shape[1]

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Map each point to its nearest center (0-based labels)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        if points.shape[1] != self.n_features:
            raise ModelError(
                f"model expects {self.n_features} features, got {points.shape[1]}"
            )
        return assign_to_centers(points, self.centers)[0]


def assign_to_centers(points: np.ndarray, centers: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center assignment; returns (labels, squared distances).

    Uses the ||x||² - 2·x·c + ||c||² expansion so the hot loop is one
    matrix multiply — the compute-bound kernel both engines share.  The
    distances are laid out k-major, ``(k, n)``, so each center's row is
    contiguous and every step runs across all points at once: the minimum
    over the k rows, then the first center that reaches it (``argmin``'s
    tie rule), found as the largest of the weights ``k - j`` over the
    centers ``j`` equal to the minimum.  A point with a ``NaN`` distance (a
    ``NaN`` or ±inf feature) is re-decided by ``argmin``, which takes the
    first ``NaN`` as the minimum.  Labels and distances are bit for bit
    those of ``argmin`` over the row-major ``(n, k)`` distances of the same
    product ``points @ centers.T``.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    k = len(centers)
    if k == 0:
        raise ModelError("cannot assign points to zero centers")
    point_norms = np.einsum("ij,ij->i", points, points)
    center_norms = np.einsum("ij,ij->i", centers, centers)
    # The product keeps the row-major operand order: OpenBLAS rounds
    # centers @ points.T differently once there are 16 or more features.
    distances = np.multiply((points @ centers.T).T, 2.0, order="C")
    np.subtract(point_norms, distances, out=distances)
    distances += center_norms[:, None]
    best = distances.min(axis=0)
    weights = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    labels = k - ((distances == best) * weights).max(axis=0).astype(np.intp)
    unordered = np.flatnonzero(np.isnan(best))
    if len(unordered):
        labels[unordered] = np.argmin(distances[:, unordered], axis=0)
        best[unordered] = distances[labels[unordered], unordered]
    return labels, np.maximum(best, 0.0, out=best)


def _init_centers(data: DArray, k: int, init: str, rng: np.random.Generator
                  ) -> np.ndarray:
    """Sample initial centers from the distributed data."""
    shapes = data.partition_shapes()
    rows_per_partition = np.asarray([s[0] for s in shapes], dtype=np.int64)
    total = int(rows_per_partition.sum())
    if total < k:
        raise ModelError(f"cannot pick {k} centers from {total} points")
    if init == "random":
        chosen = np.sort(rng.choice(total, size=k, replace=False))
        offsets = np.concatenate([[0], np.cumsum(rows_per_partition)])
        centers = []
        for global_index in chosen:
            partition = int(np.searchsorted(offsets, global_index, side="right") - 1)
            local = int(global_index - offsets[partition])
            centers.append(np.asarray(data.get_partition(partition))[local])
        return np.asarray(centers, dtype=np.float64)
    if init == "kmeans++":
        return _kmeanspp(data, k, rng)
    raise ModelError(f"unknown init {init!r}; use 'random' or 'kmeans++'")


def _kmeanspp(data: DArray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distributed k-means++ seeding (D² sampling)."""
    first_partition = rng.integers(data.npartitions)
    part = np.asarray(data.get_partition(int(first_partition)), dtype=np.float64)
    while len(part) == 0:
        first_partition = (first_partition + 1) % data.npartitions
        part = np.asarray(data.get_partition(int(first_partition)), dtype=np.float64)
    centers = [part[rng.integers(len(part))].copy()]
    for _ in range(1, k):
        current = np.asarray(centers)
        partials = data.map_partitions(
            lambda i, p: assign_to_centers(np.asarray(p, dtype=np.float64), current)[1]
        )
        weights = np.concatenate(partials)
        total_weight = weights.sum()
        if total_weight <= 0:
            # All points coincide with existing centers: duplicate one.
            centers.append(centers[0].copy())
            continue
        target = rng.random() * total_weight
        global_index = int(np.searchsorted(np.cumsum(weights), target))
        global_index = min(global_index, len(weights) - 1)
        offsets = np.concatenate([[0], np.cumsum([len(p) for p in partials])])
        partition = int(np.searchsorted(offsets, global_index, side="right") - 1)
        local = global_index - offsets[partition]
        centers.append(
            np.asarray(data.get_partition(partition), dtype=np.float64)[local].copy()
        )
    return np.asarray(centers, dtype=np.float64)


@dataclass
class _LloydFoldState:
    """Mutable state the Lloyd fold threads through ``fold_fit``."""

    centers: np.ndarray
    inertia: float = np.inf
    iterations: int = 0
    converged: bool = False
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


class _LloydFold:
    """One Lloyd step expressed in the partition-fold contract."""

    solver = "kmeans.lloyd"

    def __init__(self, k: int, tolerance: float, iteration_callback) -> None:
        self.k = k
        self.tolerance = tolerance
        self.iteration_callback = iteration_callback
        self._centers0: np.ndarray | None = None

    def with_centers(self, centers: np.ndarray) -> "_LloydFold":
        self._centers0 = centers
        return self

    def init_state(self) -> _LloydFoldState:
        return _LloydFoldState(centers=self._centers0,
                               counts=np.zeros(self.k, dtype=np.int64))

    def partial(self, state: _LloydFoldState, index: int, part: np.ndarray):
        """(per-center sums, counts, partial inertia) at the current centers."""
        current = state.centers
        k = self.k
        points = np.asarray(part, dtype=np.float64)
        if len(points) == 0:
            d = current.shape[1]
            return np.zeros((k, d)), np.zeros(k, dtype=np.int64), 0.0
        labels, distances = assign_to_centers(points, current)
        sums = per_class_sums(labels, points, k)
        partition_counts = np.bincount(labels, minlength=k)
        return sums, partition_counts, float(distances.sum())

    def merge(self, partials: list):
        sums = np.sum([part[0] for part in partials], axis=0)
        counts = np.sum([part[1] for part in partials], axis=0)
        new_inertia = float(np.sum([part[2] for part in partials]))
        return sums, counts, new_inertia

    def step(self, state: _LloydFoldState, merged, iteration: int) -> _LloydFoldState:
        sums, counts, new_inertia = merged
        centers = state.centers
        new_centers = centers.copy()
        non_empty = counts > 0
        new_centers[non_empty] = sums[non_empty] / counts[non_empty, None]
        # Empty clusters keep their previous center (R's kmeans warns and
        # continues; reseeding would break determinism).
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        state.centers = new_centers
        if self.iteration_callback is not None:
            self.iteration_callback(iteration, new_inertia)
        state.inertia = new_inertia
        state.iterations = iteration
        state.counts = counts
        if shift <= self.tolerance:
            state.converged = True
        return state

    def converged(self, state: _LloydFoldState) -> bool:
        return state.converged


def hpdkmeans(
    data: DArray,
    k: int,
    max_iterations: int = 20,
    tolerance: float = 1e-6,
    init: str = "kmeans++",
    initial_centers: np.ndarray | None = None,
    seed: int | None = None,
    iteration_callback=None,
) -> KMeansModel:
    """Cluster a distributed array into ``k`` groups.

    ``iteration_callback(iteration, inertia)`` is invoked after each Lloyd
    step; the per-iteration benchmarks (Figures 17/20) time these steps.
    """
    if k < 1:
        raise ModelError("k must be >= 1")
    if not data.is_filled:
        raise ModelError("cannot cluster a darray with unfilled partitions")
    rng = np.random.default_rng(seed)
    if initial_centers is not None:
        centers = np.asarray(initial_centers, dtype=np.float64)
        if centers.shape != (k, data.ncol):
            raise ModelError(
                f"initial centers must be {(k, data.ncol)}, got {centers.shape}"
            )
        centers = centers.copy()
    else:
        centers = _init_centers(data, k, init, rng)

    n_total = data.nrow
    fold = _LloydFold(k, tolerance, iteration_callback).with_centers(centers)
    state = fold_fit(data, fold, max_iterations=max_iterations)

    return KMeansModel(
        centers=state.centers,
        inertia=state.inertia,
        iterations=state.iterations,
        converged=state.converged,
        n_observations=n_total,
        cluster_sizes=np.asarray(state.counts, dtype=np.int64),
    )
