"""Single-threaded R baseline for K-means (stock ``kmeans()``).

The distributed solver run as one sequential process over the full matrix
(one partition) — the Figure 17 baseline whose per-iteration time does not
improve with more cores.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.fold import LocalArray
from repro.algorithms.kmeans import KMeansModel, hpdkmeans
from repro.errors import ModelError

__all__ = ["r_kmeans"]


def r_kmeans(
    points: np.ndarray,
    k: int,
    max_iterations: int = 20,
    tolerance: float = 1e-6,
    seed: int | None = None,
    initial_centers: np.ndarray | None = None,
    iteration_callback=None,
) -> KMeansModel:
    """Sequential Lloyd's algorithm on a plain matrix, seeded (without
    ``initial_centers``) by ``k`` distinct rows drawn at random."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ModelError("r_kmeans requires a 2-D matrix")
    if len(points) < k:
        raise ModelError(f"cannot pick {k} centers from {len(points)} points")
    if initial_centers is None:
        rng = np.random.default_rng(seed)
        initial_centers = points[rng.choice(len(points), size=k, replace=False)]
    return hpdkmeans(LocalArray(points), k, max_iterations=max_iterations,
                     tolerance=tolerance, initial_centers=initial_centers,
                     iteration_callback=iteration_callback)
