"""Hardware profiles for paper-scale performance replay.

The paper's testbed: "24 HP SL390 servers … Each server has 24
hyper-threaded 2.67 GHz cores (Intel Xeon X5650), 196 GB of RAM, 120 GB
SSD, and are connected with full bisection bandwidth on a 10Gbps network"
(§7).  :data:`SL390` captures that machine as the rate constants the
queueing and analytic models consume.

Calibration: each constant is pinned by one (or two) observations from the
paper's own figures — see the per-field comments and
:mod:`repro.perfmodel.calibration` for the provenance.  Everything else
(every other point of every figure) is then *predicted* by the mechanisms,
not fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["HardwareProfile", "SL390", "scaled_profile"]

GB = 1e9
ROWS_PER_GB = 20e6  # "50 GB to 150 GB … approximately 1 to 3 billion rows" (§7.1)


@dataclass(frozen=True)
class HardwareProfile:
    """Rate constants for one machine class (all times in seconds)."""

    # -- machine shape ------------------------------------------------------
    cores_per_node: int = 24           # hyper-threaded
    physical_cores_per_node: int = 12  # "the node has only 12 physical cores" (§7.3.1)
    memory_bytes_per_node: int = int(196 * GB)
    network_bytes_per_s: float = 1.25e9  # 10 Gbps full bisection

    # -- database scan service (ODBC path) ------------------------------------
    # Concurrent ODBC result scans a node serves at once; more connections
    # queue (the "overwhelm the database" mechanism).
    db_scan_slots_per_node: int = 4
    # Per returned row: deserialize, convert to text, push to the socket.
    # Pinned with odbc_probe_s by Fig 1 (single R, 50 GB ≈ 55 min) and
    # Fig 12 (120 connections, 150 GB ≈ 40 min).
    odbc_extract_s_per_row: float = 5.4e-6
    # Per *segment* row per query: locating an ordered row range forces each
    # node to probe its whole local segment, so K concurrent range queries
    # pay K full-segment probes — the cost that grows with connection count.
    odbc_probe_s_per_row: float = 6.8e-8
    # Client-side: read the stream and parse one text row into R objects.
    # This overlaps with the server (pipelined), so it only binds when the
    # client is the bottleneck — the single-connection case of Fig 1.
    odbc_client_parse_s_per_row: float = 3.2e-6
    odbc_connection_setup_s: float = 0.5

    # -- Vertica Fast Transfer ---------------------------------------------------
    # DB side: read from disk, decompress, re-encode column blocks, send.
    # "Time taken by the database is constant and independent of the
    # parallelism in Distributed R" (Fig 14): one pipeline rate per node.
    # Pinned by Fig 14's flat DB component (~300 s for 33 GB/node).
    vft_db_export_bytes_per_s: float = 1.11e8
    # R side: receive, buffer in shm, convert to R objects — scales with the
    # number of R instances per node (Fig 14's shrinking R component).
    vft_r_convert_bytes_per_s_per_instance: float = 6.0e7
    # Diminishing returns past the physical core count.
    vft_r_max_effective_instances: int = 12
    vft_fixed_overhead_s: float = 5.0

    # -- in-database prediction (Figs 15/16) -----------------------------------------
    # Fixed planner + model-load latency, then rows stream through parallel
    # UDF instances.  Rates are per node; pinned by the 1-billion-row points.
    predict_fixed_overhead_s: float = 10.0
    kmeans_predict_s_per_row_per_node: float = 1.54e-6   # Fig 15: 1B rows / 5 nodes = 318 s
    glm_predict_s_per_row_per_node: float = 0.98e-6      # Fig 16: 1B rows / 5 nodes = 206 s

    # -- K-means iteration kernels ------------------------------------------------
    # Fig 17 runs the R-level kernel inside each Distributed R instance
    # (interpreted, per-core); Fig 20 runs the BLAS-backed implementation
    # shared with MLlib ("optimized linear algebra libraries", §7).
    r_kernel_flops_per_s_per_core: float = 9.5e7    # Fig 17: R, 2e11 flops ≈ 35 min
    dr_kernel_flops_per_s_per_core: float = 7.6e7   # Fig 17: DR, 12 cores ≈ <4 min
    dr_blas_flops_per_s_per_node: float = 1.25e10   # Fig 20: DR, 60M rows ≈ 16 min/iter
    spark_blas_flops_per_s_per_node: float = 9.5e9  # Fig 20: Spark ≈ 21 min/iter
    kmeans_iteration_overhead_s: float = 3.0

    # -- GLM / regression kernels ---------------------------------------------------
    # Distributed Newton-Raphson: one IRLS pass costs alpha*p + beta*p^2
    # per row per core (the X'WX accumulation grows quadratically in the
    # coefficient count).  Pinned by Fig 18 (100M x 7, 1 core ≈ 8 min)
    # together with Fig 19 (30M rows/node at p = 101, < 2 min/iteration).
    dr_glm_s_per_row_per_feature_per_core: float = 2.88e-7
    dr_glm_s_per_row_per_feature_sq_per_core: float = 1.46e-9
    # Stock R's lm(): QR decomposition, O(n p^2) with R's memory traffic.
    # Seconds per row at p = 8 coefficients (the model scales it by p²/64).
    # Pinned by Fig 18 (R > 25 min on 100M x 7).
    r_lm_s_per_row_per_feature_sq: float = 1.5e-5
    glm_iteration_overhead_s: float = 2.0

    # -- load paths for the end-to-end comparison (Fig 21) ----------------------------
    spark_hdfs_load_bytes_per_s_per_node: float = 6.8e7  # load 45 GB/node in ~11 min
    dr_ext4_load_bytes_per_s_per_node: float = 1.5e8     # "just 5 minutes" from ext4


SL390 = HardwareProfile()


def scaled_profile(base: HardwareProfile = SL390, speed: float = 1.0,
                   **overrides) -> HardwareProfile:
    """A profile uniformly ``speed`` times faster than ``base`` (rate fields
    scaled, per-unit costs divided), with optional field overrides."""
    if speed <= 0:
        raise ValueError("speed factor must be positive")
    rate_fields = [
        "network_bytes_per_s",
        "vft_db_export_bytes_per_s",
        "vft_r_convert_bytes_per_s_per_instance",
        "r_kernel_flops_per_s_per_core",
        "dr_kernel_flops_per_s_per_core",
        "dr_blas_flops_per_s_per_node",
        "spark_blas_flops_per_s_per_node",
        "spark_hdfs_load_bytes_per_s_per_node",
        "dr_ext4_load_bytes_per_s_per_node",
    ]
    cost_fields = [
        "odbc_extract_s_per_row",
        "odbc_probe_s_per_row",
        "odbc_client_parse_s_per_row",
        "kmeans_predict_s_per_row_per_node",
        "glm_predict_s_per_row_per_node",
        "dr_glm_s_per_row_per_feature_per_core",
        "r_lm_s_per_row_per_feature_sq",
    ]
    updates = {}
    for name in rate_fields:
        updates[name] = getattr(base, name) * speed
    for name in cost_fields:
        updates[name] = getattr(base, name) / speed
    updates.update(overrides)
    return replace(base, **updates)
