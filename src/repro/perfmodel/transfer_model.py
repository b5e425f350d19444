"""Performance models of the two transfer paths (Figs 1, 12, 13, 14).

The ODBC model is closed-form FIFO queueing: every connection's
ordered-range query forces a full-segment probe on every node, queueing on
the node's bounded scan slots, and the slowest node sets the makespan.  The
VFT model is the two-stage pipeline of Fig 14: a constant database export
stage plus an R conversion stage that shrinks with the number of R
instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.perfmodel.hardware import GB, ROWS_PER_GB, SL390, HardwareProfile
from repro.perfmodel.queueing import node_weights, wave_ends

__all__ = ["OdbcTransferResult", "VftTransferResult",
           "simulate_odbc_transfer", "model_vft_transfer"]


@dataclass
class OdbcTransferResult:
    """Outcome of one simulated ODBC extraction."""

    total_seconds: float
    connections: int
    rows: float
    peak_queue_depth: int
    mean_slot_utilization: float

    @property
    def minutes(self) -> float:
        return self.total_seconds / 60.0


@dataclass
class VftTransferResult:
    """Outcome of one modelled VFT load, with the Fig 14 breakdown."""

    total_seconds: float
    db_seconds: float
    r_seconds: float
    instances_per_node: int

    @property
    def minutes(self) -> float:
        return self.total_seconds / 60.0


def simulate_odbc_transfer(
    table_gb: float,
    db_nodes: int,
    connections: int,
    profile: HardwareProfile = SL390,
    rows_per_gb: float = ROWS_PER_GB,
    segment_skew: list[float] | None = None,
) -> OdbcTransferResult:
    """Queueing model of parallel ODBC extraction.

    Mechanism: connection *i* requests global rows ``[i·N/K, (i+1)·N/K)``.
    Serving that range requires every node to (a) probe its whole local
    segment for matching row positions and (b) extract + text-serialize the
    matching rows — all while holding one of the node's scan slots.  The
    client then parses its rows.  ``segment_skew`` optionally weights rows
    per node (uniform by default).

    All connections open together and queue FIFO, in connection order, on
    each node's slots, so connection *i* is served in wave ``i // slots``
    on every node and finishes when its slowest node does.
    """
    if table_gb <= 0 or db_nodes < 1 or connections < 1:
        raise SimulationError("table size, node count, and connections must be positive")
    total_rows = table_gb * rows_per_gb
    weights = node_weights(segment_skew, db_nodes)
    weight_sum = sum(weights)
    segment_rows = [total_rows * w / weight_sum for w in weights]
    rows_per_connection = total_rows / connections
    slots = profile.db_scan_slots_per_node
    setup = profile.odbc_connection_setup_s

    # One connection's service on each node: probe the whole segment, then
    # extract its share of the range (spread proportionally to segment size).
    services = [
        segment_rows[node] * profile.odbc_probe_s_per_row
        + rows_per_connection * weights[node] / weight_sum
        * profile.odbc_extract_s_per_row
        for node in range(db_nodes)
    ]
    node_waves = [wave_ends(setup, service, connections, slots) for service in services]
    # Client-side stream read + parse is pipelined with the server: it only
    # extends a connection when the client is slower than the servers (the
    # single-connection bottleneck of Fig 1).
    parse_total = rows_per_connection * profile.odbc_client_parse_s_per_row
    makespan = 0.0
    for fetched in map(max, zip(*node_waves)):
        remaining = parse_total - (fetched - setup)
        makespan = max(makespan, fetched + remaining if remaining > 0 else fetched)

    slot_capacity_seconds = makespan * db_nodes * slots
    return OdbcTransferResult(
        total_seconds=makespan,
        connections=connections,
        rows=total_rows,
        peak_queue_depth=db_nodes * max(0, connections - slots),
        mean_slot_utilization=(
            connections * sum(services) / slot_capacity_seconds
            if slot_capacity_seconds else 0.0
        ),
    )


def model_vft_transfer(
    table_gb: float,
    db_nodes: int,
    instances_per_node: int = 24,
    profile: HardwareProfile = SL390,
    segment_skew: list[float] | None = None,
) -> VftTransferResult:
    """Analytic model of a VFT load (the Fig 14 two-component breakdown).

    The DB component is the per-node export pipeline (disk read, decompress,
    block re-encode, send) — constant in R-side parallelism because "the
    database … uses the same amount of parallelism and resources as
    specified by its query planner".  The R component is staging + object
    conversion, divided across effective R instances.  With skewed
    segments the slowest node dominates (locality-preserving policy).
    """
    if table_gb <= 0 or db_nodes < 1 or instances_per_node < 1:
        raise SimulationError("table size, nodes, and instances must be positive")
    weights = node_weights(segment_skew, db_nodes)
    weight_sum = sum(weights)
    bytes_per_node = [table_gb * GB * w / weight_sum for w in weights]

    effective_instances = min(instances_per_node, profile.vft_r_max_effective_instances)
    db_times = [b / profile.vft_db_export_bytes_per_s for b in bytes_per_node]
    r_times = [
        b / (profile.vft_r_convert_bytes_per_s_per_instance * effective_instances)
        for b in bytes_per_node
    ]
    # Per-node, the two stages are sequential per buffered chunk (receive
    # then convert); across nodes they run in parallel — the slowest node
    # sets the makespan.
    db_component = max(db_times)
    r_component = max(r_times)
    total = profile.vft_fixed_overhead_s + db_component + r_component
    return VftTransferResult(
        total_seconds=total,
        db_seconds=db_component,
        r_seconds=r_component,
        instances_per_node=instances_per_node,
    )
