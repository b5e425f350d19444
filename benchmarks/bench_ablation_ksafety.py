"""Ablation: the cost of fault tolerance (k-safety buddy projections).

Measures (a) the load overhead of writing buddy replicas, (b) scan time on
the healthy path vs the failover path, and (c) the storage doubling —
quantifying what "the same fault-tolerance guarantees as Vertica tables"
costs the transfer pipeline.
"""

import numpy as np
import pytest

from repro.dr import start_session
from repro.transfer import db2darray
from repro.vertica import HashSegmentation, VerticaCluster

ROWS = 40_000
FEATURES = 4


def build(k_safety: int):
    rng = np.random.default_rng(70)
    columns = {"k": rng.integers(0, 10**6, ROWS)}
    names = []
    for j in range(FEATURES):
        names.append(f"c{j}")
        columns[f"c{j}"] = rng.normal(size=ROWS)
    cluster = VerticaCluster(node_count=3)
    cluster.create_table_like("t", columns, HashSegmentation("k"),
                              k_safety=k_safety)
    return cluster, columns, names


@pytest.mark.parametrize("k_safety", [0, 1])
def test_ablation_load_cost_of_ksafety(benchmark, k_safety):
    cluster, columns, _ = build(k_safety)

    def run():
        fresh, cols, _ = build(k_safety)
        fresh.bulk_load("t", cols)
        return fresh

    loaded = benchmark.pedantic(run, rounds=3, iterations=1)
    assert loaded.sql("SELECT COUNT(*) FROM t").scalar() == ROWS


@pytest.mark.parametrize("failed", [False, True])
def test_ablation_scan_healthy_vs_failover(benchmark, failed):
    cluster, columns, names = build(k_safety=1)
    cluster.bulk_load("t", columns)
    if failed:
        cluster.fail_node(1)

    result = benchmark.pedantic(
        lambda: cluster.sql("SELECT SUM(c0) FROM t"), rounds=3, iterations=1)
    assert result.scalar() == pytest.approx(columns["c0"].sum())
    if failed:
        assert cluster.metrics.counter("buddy_scans").value > 0


def test_ablation_vft_under_failover(benchmark):
    cluster, columns, names = build(k_safety=1)
    cluster.bulk_load("t", columns)
    cluster.fail_node(0)
    with start_session(node_count=3, instances_per_node=2) as session:
        array = benchmark.pedantic(
            lambda: db2darray(cluster, "t", names, session),
            rounds=2, iterations=1)
        assert array.nrow == ROWS


def test_ablation_storage_doubles():
    plain_cluster, columns, _ = build(k_safety=0)
    plain_cluster.bulk_load("t", columns)
    safe_cluster, columns, _ = build(k_safety=1)
    safe_cluster.bulk_load("t", columns)
    plain = plain_cluster.catalog.get_table("t")
    safe = safe_cluster.catalog.get_table("t")
    plain_bytes = sum(s.compressed_size for s in plain.segments)
    safe_bytes = (sum(s.compressed_size for s in safe.segments)
                  + sum(s.compressed_size for s in safe.buddy_segments))
    assert safe_bytes == pytest.approx(2 * plain_bytes, rel=0.01)
