"""Ablation: zone-map predicate pushdown on selective scans.

Measures a selective range query over a time-clustered table against the
same query over shuffled data (where zone maps overlap everywhere and prune
nothing) — quantifying what block-level min/max metadata buys a columnar
scan before any decompression happens.
"""

import numpy as np
import pytest

from repro.vertica import VerticaCluster

ROWS = 200_000
BATCH = 10_000


def build(clustered: bool):
    cluster = VerticaCluster(node_count=2)
    cluster.sql("CREATE TABLE events (ts INT, v FLOAT)")
    if clustered:
        order = np.arange(ROWS)
    else:
        order = np.random.default_rng(81).permutation(ROWS)
    for start in range(0, ROWS, BATCH):
        ts = order[start:start + BATCH]
        cluster.bulk_load("events", {"ts": ts, "v": ts * 0.5})
    return cluster


@pytest.mark.parametrize("layout", ["clustered", "shuffled"])
def test_ablation_selective_scan_by_layout(benchmark, layout):
    cluster = build(clustered=(layout == "clustered"))
    query = "SELECT SUM(v) FROM events WHERE ts >= 190000"
    expected = float((np.arange(190_000, ROWS) * 0.5).sum())

    result = benchmark.pedantic(lambda: cluster.sql(query),
                                rounds=5, iterations=1)
    assert result.scalar() == pytest.approx(expected)
    benchmark.extra_info["rowgroups_pruned"] = int(
        cluster.metrics.counter("rowgroups_pruned").value)


def test_ablation_pruning_skips_most_rowgroups_when_clustered():
    clustered = build(clustered=True)
    shuffled = build(clustered=False)
    query = "SELECT COUNT(*) FROM events WHERE ts >= 190000"
    assert clustered.sql(query).scalar() == shuffled.sql(query).scalar() == 10_000
    assert clustered.metrics.counter("rowgroups_pruned").value >= 30
    assert shuffled.metrics.counter("rowgroups_pruned").value == 0


def test_ablation_clustered_scan_faster():
    import time

    clustered = build(clustered=True)
    shuffled = build(clustered=False)
    query = "SELECT SUM(v) FROM events WHERE ts >= 195000"
    for cluster in (clustered, shuffled):
        cluster.sql(query)  # warm up

    start = time.perf_counter()
    for _ in range(3):
        clustered.sql(query)
    clustered_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(3):
        shuffled.sql(query)
    shuffled_seconds = time.perf_counter() - start
    assert clustered_seconds < shuffled_seconds, (
        f"pruned scan ({clustered_seconds:.3f}s) should beat full scan "
        f"({shuffled_seconds:.3f}s)"
    )
