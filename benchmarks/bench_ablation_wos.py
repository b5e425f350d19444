"""Ablation: trickle-insert throughput, WOS vs direct-to-ROS.

The reason the WOS exists: a trickle INSERT into read-optimized storage
pays a full encode (compression, zone maps, checksums) for a handful of
rows, while the write-optimized store just appends the batch and lets the
Tuple Mover amortize the encode over a big moveout.  This benchmark pushes
the same stream of small insert batches through both paths and measures
statements/second; the BENCH_ablation_wos.json datapoint written by
``conftest.bench_datapoint`` records the wall time and the metric deltas
(``wos_rows``, ``current_epoch``, scan counters) for each variant.
"""

import numpy as np
import pytest

from repro.storage import ColumnSchema, SqlType
from repro.vertica import HashSegmentation, VerticaCluster
from repro.vertica.txn import TupleMoverConfig

BATCHES = 200
ROWS_PER_BATCH = 8


def make_cluster() -> VerticaCluster:
    # Park the background mover: the ablation isolates the insert path
    # itself; moveout cost is measured separately below.
    cluster = VerticaCluster(
        node_count=3,
        mover=TupleMoverConfig(moveout_rows=1 << 30,
                               moveout_age_seconds=1e9),
    )
    cluster.create_table("trickle", [
        ColumnSchema("k", SqlType.INTEGER),
        ColumnSchema("v", SqlType.FLOAT),
    ], segmentation=HashSegmentation("k"))
    return cluster


def trickle_batches():
    rng = np.random.default_rng(44)
    return [
        {
            "k": rng.integers(0, 100_000, ROWS_PER_BATCH),
            "v": rng.normal(size=ROWS_PER_BATCH),
        }
        for _ in range(BATCHES)
    ]


def run_trickle(direct: bool) -> VerticaCluster:
    cluster = make_cluster()
    table = cluster.catalog.get_table("trickle")
    for batch in trickle_batches():
        table.insert(batch, direct=direct)
    return cluster


@pytest.mark.parametrize("path", ["wos", "direct_ros"])
def test_ablation_trickle_insert_path(benchmark, path):
    direct = path == "direct_ros"
    cluster = benchmark.pedantic(
        lambda: run_trickle(direct), rounds=3, iterations=1)
    table = cluster.catalog.get_table("trickle")
    assert table.row_count == BATCHES * ROWS_PER_BATCH
    if direct:
        assert sum(seg.wos_rows for seg in table.segments) == 0
    else:
        assert sum(seg.wos_rows for seg in table.segments) == \
            BATCHES * ROWS_PER_BATCH
    cluster.tuple_mover.stop()


def test_wos_trickle_is_faster_and_moveout_amortizes(benchmark,
                                                     record_property):
    """The claim the WOS exists for: the trickle stream lands faster in
    the WOS than encoded straight to ROS, and one bulk moveout — one row
    group per segment, since 1 600 rows fit in one — yields the same
    scannable table."""
    import time

    def timed(direct):
        start = time.perf_counter()
        cluster = run_trickle(direct)
        elapsed = time.perf_counter() - start
        return cluster, elapsed

    def both():
        ros_cluster, ros_seconds = timed(True)
        wos_cluster, wos_seconds = timed(False)
        moved = wos_cluster.tuple_mover.run_moveout()
        return ros_cluster, ros_seconds, wos_cluster, wos_seconds, moved

    ros_cluster, ros_seconds, wos_cluster, wos_seconds, moved = \
        benchmark.pedantic(both, rounds=2, iterations=1)
    assert moved == BATCHES * ROWS_PER_BATCH
    rowgroups = [segment.rowgroup_count for segment in
                 wos_cluster.catalog.get_table("trickle").segments]
    assert all(count == 1 for count in rowgroups if count), rowgroups
    benchmark.extra_info["rowgroups_after_moveout"] = sum(rowgroups)
    record_property("rowgroups_after_moveout", sum(rowgroups))
    # Post-moveout, both paths answer identically.
    assert wos_cluster.sql("SELECT count(*) FROM trickle").scalar() == \
        ros_cluster.sql("SELECT count(*) FROM trickle").scalar()
    assert wos_cluster.sql("SELECT SUM(v) AS s FROM trickle").scalar() == \
        pytest.approx(ros_cluster.sql(
            "SELECT SUM(v) AS s FROM trickle").scalar())
    # The WOS path skips per-statement encodes; it must win clearly.
    assert wos_seconds < ros_seconds, (
        f"WOS trickle ({wos_seconds:.3f}s) should beat "
        f"direct-to-ROS ({ros_seconds:.3f}s)"
    )
    for cluster in (ros_cluster, wos_cluster):
        cluster.tuple_mover.stop()
