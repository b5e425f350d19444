"""Model of in-database prediction scalability (Figs 15 and 16).

Prediction is a planner-driven UDF fan-out: a fixed startup cost (plan the
query, fan out instances, fetch + deserialize the model from the local DFS
replica) followed by a streaming scan whose throughput is proportional to
the cluster's nodes ("When the table is well partitioned among the nodes of
the Vertica cluster, a near linear speedup can be achieved", §5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.perfmodel.hardware import SL390, HardwareProfile
from repro.perfmodel.queueing import node_weights, wave_ends

__all__ = ["PredictionResult", "model_in_db_prediction",
           "simulate_prediction_fanout"]


@dataclass
class PredictionResult:
    """Modelled wall time for one in-database scoring query."""

    total_seconds: float
    fixed_seconds: float
    scan_seconds: float
    rows: float
    nodes: int


def model_in_db_prediction(
    rows: float,
    model_kind: str,
    db_nodes: int = 5,
    profile: HardwareProfile = SL390,
) -> PredictionResult:
    """Time to apply a deployed model to ``rows`` table rows.

    ``model_kind`` is ``"kmeans"`` (distance to centers per row, Fig 15) or
    ``"glm"`` (dot product per row, Fig 16) — K-means costs more per row,
    which is why Fig 15 sits above Fig 16 at every size.
    """
    if rows < 0 or db_nodes < 1:
        raise SimulationError("rows and node count must be positive")
    if model_kind == "kmeans":
        per_row_per_node = profile.kmeans_predict_s_per_row_per_node
    elif model_kind == "glm":
        per_row_per_node = profile.glm_predict_s_per_row_per_node
    else:
        raise SimulationError(f"unknown model kind {model_kind!r}")
    scan = rows * per_row_per_node / db_nodes
    total = profile.predict_fixed_overhead_s + scan
    return PredictionResult(
        total_seconds=total,
        fixed_seconds=profile.predict_fixed_overhead_s,
        scan_seconds=scan,
        rows=rows,
        nodes=db_nodes,
    )


def simulate_prediction_fanout(
    rows: float,
    model_kind: str,
    db_nodes: int = 5,
    instances_per_node: int = 12,
    model_load_s: float = 1.5,
    profile: HardwareProfile = SL390,
    skew: list[float] | None = None,
) -> PredictionResult:
    """Queueing model of the prediction fan-out (the §5 mechanism behind
    Figs 15/16).

    Each node's local rows are split across ``instances_per_node`` UDF
    instances; every instance first fetches + deserializes the model from
    the local DFS replica (``model_load_s``), then streams its slice.
    Instances queue FIFO on the node's physical cores, running in
    ⌈instances/cores⌉ waves, so over-fanning out past the core count only
    adds model-load overhead — the planner's reason for bounding
    parallelism by "resources available".  The slowest node sets the scan
    time.
    """
    if rows < 0 or db_nodes < 1 or instances_per_node < 1:
        raise SimulationError("rows, nodes, and instances must be positive")
    if model_kind == "kmeans":
        per_row_per_node = profile.kmeans_predict_s_per_row_per_node
    elif model_kind == "glm":
        per_row_per_node = profile.glm_predict_s_per_row_per_node
    else:
        raise SimulationError(f"unknown model kind {model_kind!r}")
    weights = node_weights(skew, db_nodes)
    weight_sum = sum(weights)
    # per_row_per_node is the whole node's throughput at full parallelism;
    # one instance on one core processes 1/cores of that rate.
    per_row_per_core = per_row_per_node * profile.physical_cores_per_node

    scan = 0.0
    for node in range(db_nodes):
        slice_rows = rows * weights[node] / weight_sum / instances_per_node
        service = model_load_s + slice_rows * per_row_per_core
        last_wave = wave_ends(0.0, service, instances_per_node,
                              profile.physical_cores_per_node)[-1]
        scan = max(scan, last_wave)
    total = profile.predict_fixed_overhead_s + scan
    return PredictionResult(
        total_seconds=total,
        fixed_seconds=profile.predict_fixed_overhead_s,
        scan_seconds=scan,
        rows=rows,
        nodes=db_nodes,
    )
