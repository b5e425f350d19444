"""Ablation: streaming-pipeline batch size x queue depth.

Sweeps ``PipelineConfig(batch_rows, queue_depth)`` over the tentpole
workload — a full-table scan feeding ``ExportToDistributedR`` — and records
throughput next to the memory telemetry (``peak_batch_bytes``,
``pipeline_inflight_bytes_peak``).  The qualitative shape: peak in-flight
bytes grow with both knobs (more rows per batch, more batches queued),
while throughput is flat-ish past small batches — the knobs trade memory
for scheduling overhead, not correctness.
"""

import numpy as np
import pytest

from benchmarks.conftest import inflight_bytes_bound
from repro.dr import start_session
from repro.transfer import db2darray
from repro.vertica import HashSegmentation, PipelineConfig, VerticaCluster

ROWS = 36_000
FEATURES = 4
NODES = 3
LOAD_ROUNDS = 4  # several bulk loads -> several row groups per segment


def build(batch_rows: int = 8192,
          queue_depth: int = 4) -> tuple[VerticaCluster, list[str]]:
    rng = np.random.default_rng(71)
    names = [f"c{j}" for j in range(FEATURES)]
    cluster = VerticaCluster(
        node_count=NODES,
        pipeline=PipelineConfig(batch_rows=batch_rows,
                                queue_depth=queue_depth),
    )
    per_round = ROWS // LOAD_ROUNDS
    first = {"k": rng.integers(0, 1_000_000, per_round),
             **{name: rng.normal(size=per_round) for name in names}}
    cluster.create_table_like("bench", first, HashSegmentation("k"))
    cluster.bulk_load("bench", first)
    for _ in range(LOAD_ROUNDS - 1):
        cluster.bulk_load("bench", {
            "k": rng.integers(0, 1_000_000, per_round),
            **{name: rng.normal(size=per_round) for name in names},
        })
    return cluster, names


def load_once(cluster: VerticaCluster, names: list[str]) -> None:
    with start_session(node_count=NODES, instances_per_node=2) as session:
        result = db2darray(cluster, "bench", names, session, chunk_rows=4096)
        assert result.nrow == ROWS


@pytest.mark.parametrize("batch_rows,queue_depth", [
    (1024, 2),
    (4096, 2),
    (4096, 8),
    (16384, 4),
])
def test_ablation_batchsize_queue_depth(benchmark, batch_rows, queue_depth):
    cluster, names = build(batch_rows=batch_rows, queue_depth=queue_depth)
    benchmark.pedantic(lambda: load_once(cluster, names),
                       rounds=3, iterations=1)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        mean_seconds = benchmark.stats.stats.mean
        benchmark.extra_info["rows_per_second"] = round(ROWS / mean_seconds)
    benchmark.extra_info.update({
        "batch_rows": batch_rows,
        "queue_depth": queue_depth,
        "peak_batch_bytes": int(cluster.metrics.gauge("peak_batch_bytes").peak),
        "pipeline_inflight_bytes_peak": int(
            cluster.metrics.gauge("pipeline_inflight_bytes").peak),
        "batches_scanned": int(cluster.metrics.counter("batches_scanned").value),
    })


def test_ablation_smaller_batches_lower_peak():
    peaks = {}
    for batch_rows in (1024, 16384):
        cluster, names = build(batch_rows=batch_rows, queue_depth=2)
        load_once(cluster, names)
        peaks[batch_rows] = cluster.metrics.gauge("pipeline_inflight_bytes").peak
    assert 0 < peaks[1024] < peaks[16384], peaks


def test_ablation_peak_memory_bounded_by_queue_depth():
    cluster, names = build(batch_rows=256, queue_depth=2)
    load_once(cluster, names)
    peak = cluster.metrics.gauge("pipeline_inflight_bytes").peak
    bound = inflight_bytes_bound(cluster)
    assert 0 < peak <= bound, (peak, bound)
    table_bytes = ROWS * FEATURES * 8
    assert bound < table_bytes / 4, (bound, table_bytes)
