"""Models of algorithm runtime: the R-vs-DR and scaling figures (17, 18, 19).

Two K-means kernels exist in the integrated product: the R-level kernel
each Distributed R instance runs when executing R code (Fig 17), and the
BLAS-backed kernel shared with MLlib (Fig 20, in
:mod:`repro.perfmodel.spark_model`).  Regression compares stock R's QR
decomposition with Distributed R's Newton-Raphson (Fig 18) — a difference
in *algorithm*, not just parallelism, which is why single-core Distributed
R already beats R.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.perfmodel.hardware import SL390, HardwareProfile
from repro.perfmodel.queueing import node_weights

__all__ = [
    "IterationTime",
    "model_kmeans_iteration_r",
    "model_kmeans_iteration_dr",
    "model_regression_r",
    "model_regression_dr",
]


@dataclass
class IterationTime:
    """Seconds for one iteration (and convergence when iterations given)."""

    per_iteration_seconds: float
    iterations: int = 1

    @property
    def total_seconds(self) -> float:
        return self.per_iteration_seconds * self.iterations


def _kmeans_flops(rows: float, features: int, k: int) -> float:
    """One Lloyd iteration: a multiply-add per (point, center, feature)."""
    return 2.0 * rows * features * k


def model_kmeans_iteration_r(
    rows: float, features: int, k: int, profile: HardwareProfile = SL390
) -> IterationTime:
    """Stock R: single-threaded regardless of available cores (Fig 17)."""
    flops = _kmeans_flops(rows, features, k)
    return IterationTime(flops / profile.r_kernel_flops_per_s_per_core)


def model_kmeans_iteration_dr(
    rows: float,
    features: int,
    k: int,
    cores: int = 1,
    nodes: int = 1,
    profile: HardwareProfile = SL390,
    skew: list[float] | None = None,
) -> IterationTime:
    """Distributed R, R-level kernel: scales to physical cores then
    plateaus ("the performance plateaus beyond 12 cores because the node
    has only 12 physical cores and the K-means algorithm is compute
    bound", §7.3.1).  With ``skew``, the most loaded node dominates
    (the straggler effect of §3.2).
    """
    if cores < 1 or nodes < 1:
        raise SimulationError("cores and nodes must be positive")
    effective_cores = min(cores, profile.physical_cores_per_node)
    weights = node_weights(skew, nodes)
    worst_share = max(weights) / sum(weights)
    rows_on_worst_node = rows * worst_share
    flops = _kmeans_flops(rows_on_worst_node, features, k)
    compute = flops / (profile.dr_kernel_flops_per_s_per_core * effective_cores)
    return IterationTime(compute + profile.kmeans_iteration_overhead_s)


def model_regression_r(
    rows: float, features: int, profile: HardwareProfile = SL390
) -> IterationTime:
    """Stock R ``lm``: one QR decomposition, O(n·p²), single-threaded."""
    p = features + 1  # intercept column
    # rows * coeff * p^2, with coeff calibrated at the Fig 18 shape (p = 8),
    # hence the p²/64 normalization.
    seconds = rows * profile.r_lm_s_per_row_per_feature_sq * (p * p) / 64.0
    return IterationTime(seconds)


def model_regression_dr(
    rows: float,
    features: int,
    cores: int = 1,
    nodes: int = 1,
    iterations: int = 2,
    profile: HardwareProfile = SL390,
    skew: list[float] | None = None,
) -> IterationTime:
    """Distributed Newton-Raphson: per-iteration cost linear in rows and
    features, divided over physical cores and nodes; "converges in just 4
    minutes (2 iterations)" on the Fig 19 workload."""
    if cores < 1 or nodes < 1 or iterations < 1:
        raise SimulationError("cores, nodes, and iterations must be positive")
    p = features + 1
    effective_cores = min(cores, profile.physical_cores_per_node)
    weights = node_weights(skew, nodes)
    worst_share = max(weights) / sum(weights)
    rows_on_worst_node = rows * worst_share
    per_row = (
        p * profile.dr_glm_s_per_row_per_feature_per_core
        + p * p * profile.dr_glm_s_per_row_per_feature_sq_per_core
    )
    compute = rows_on_worst_node * per_row / effective_cores
    return IterationTime(
        compute + profile.glm_iteration_overhead_s, iterations=iterations
    )
