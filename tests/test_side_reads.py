"""DML, model refresh and AQP read tables through the per-node scan sources.

SELECT, joins and ODBC range fetches have always read through
``VerticaCluster.stream_table_per_node``: a scan slot per node, buddy
failover when a node is down, the ``scan.stream`` fault site and the scan
counters.  These tests pin the same guarantees on every other reader —
DELETE, UPDATE, ``REFRESH MODEL`` (delta fold and refit), ``CREATE
SAMPLE``, sample refresh and ``WITHIN n% ERROR`` — each with node 1 down:

* without buddy projections the statement raises :class:`NodeDownError`
  instead of answering from the dead node's storage;
* with ``k_safety=1`` it returns the healthy cluster's answer through the
  buddy replica, and the read is counted and zone-map pruned.

The Tuple Mover's background sample fold reads the same way, and a failed
read must leave the sample stale for the next pass to fold, not kill the
daemon.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.algorithms import LocalArray, hpdglm
from repro.aqp.refresh import refresh_sample
from repro.deploy import deploy_model, load_model, refresh_model
from repro.errors import NodeDownError
from repro.faults.plan import FaultKind, FaultPlan
from repro.storage import ColumnSchema, SqlType
from repro.vertica import VerticaCluster
from repro.vertica.segmentation import RoundRobinSegmentation
from repro.vertica.table import Table

ROUNDS, ROWS = 4, 300  # four bulk loads: four row groups per segment
COUNTERS = ("buddy_scans", "rows_scanned", "rowgroups_pruned")
TRAINING = {"table": "t", "features": ["x"], "response": "y",
            "algorithm": "glm", "params": {"family": "gaussian"}}
SAMPLE = "CREATE SAMPLE s ON t UNIFORM RATE 50% SEED 7"


def make_cluster(k_safety: int) -> VerticaCluster:
    """``t(k, x, y)``: each load a disjoint ``k`` range, so every segment
    holds four row groups whose ``k`` zone maps do not overlap."""
    cluster = VerticaCluster(node_count=3)
    cluster.create_table("t", [ColumnSchema("k", SqlType.INTEGER),
                               ColumnSchema("x", SqlType.FLOAT),
                               ColumnSchema("y", SqlType.FLOAT)],
                         k_safety=k_safety)
    rng = np.random.default_rng(17)
    for r in range(ROUNDS):
        x = rng.normal(size=ROWS)
        cluster.bulk_load("t", {"k": np.arange(r * ROWS, (r + 1) * ROWS),
                                "x": x,
                                "y": 2.0 * x + 0.1 * rng.normal(size=ROWS)})
    return cluster


def deploy_glm(cluster: VerticaCluster) -> None:
    data = cluster.gather_table("t", ["x", "y"])
    model = hpdglm(LocalArray(data["y"].reshape(-1, 1), 3),
                   LocalArray(data["x"].reshape(-1, 1), 3),
                   family="gaussian")
    deploy_model(cluster, model, "m", training=dict(TRAINING))


def trickle(cluster: VerticaCluster) -> None:
    """Three one-row commits into the WOS, without waking the Tuple Mover
    (whose background sample fold would race an explicit refresh)."""
    table = cluster.catalog.get_table("t")
    for i in range(3):
        table.insert({"k": [5000 + i], "x": [i + 0.5], "y": [float(i)]},
                     direct=False)


def refresh_answer(cluster: VerticaCluster):
    result = refresh_model(cluster, "m")
    model = load_model(cluster, "m")
    return (result.strategy, result.rows_folded,
            model.coefficients.tobytes(), model.deviance)


def prepare_fold(cluster):
    deploy_glm(cluster)
    trickle(cluster)


def prepare_refit(cluster):
    prepare_fold(cluster)
    cluster.sql("DELETE FROM t WHERE k = 5000")  # a delete forces the refit


def prepare_sample(cluster):
    cluster.sql(SAMPLE)


def prepare_stale_sample(cluster):
    cluster.sql(SAMPLE)
    trickle(cluster)


def sample_answer(cluster):
    record = cluster.aqp.get("s")
    return record.base_rows, record.sample_rows


def refresh_sample_answer(cluster):
    result = refresh_sample(cluster, "s")
    return result.strategy, result.rows_folded, sample_answer(cluster)


def create_sample_answer(cluster):
    cluster.sql(SAMPLE)
    return sample_answer(cluster)


#: name -> (prepare on the healthy cluster, the statement under test).
CASES = {
    "delete": (None, lambda c: c.sql(
        "DELETE FROM t WHERE k BETWEEN 10 AND 20").rows()),
    "update": (None, lambda c: c.sql(
        "UPDATE t SET y = y + 1 WHERE k BETWEEN 10 AND 20").rows()),
    "refresh_model_fold": (prepare_fold, refresh_answer),
    "refresh_model_refit": (prepare_refit, refresh_answer),
    "create_sample": (None, create_sample_answer),
    "refresh_sample": (prepare_stale_sample, refresh_sample_answer),
    "within": (prepare_sample, lambda c: c.sql(
        "SELECT COUNT(*) FROM t WHERE k < 600 WITHIN 50% ERROR").rows()),
}


def counters(cluster: VerticaCluster) -> dict[str, float]:
    return {name: cluster.metrics.counter(name).value for name in COUNTERS}


class TestSideReadsThroughScanSources:
    """Every side reader takes scan slots, fails over and is counted."""

    @staticmethod
    def _failed(case: str, k_safety: int) -> VerticaCluster:
        prepare, _ = CASES[case]
        cluster = make_cluster(k_safety)
        if prepare is not None:
            prepare(cluster)
        cluster.fail_node(1)
        return cluster

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_failed_node_without_k_safety_raises(self, case):
        cluster = self._failed(case, k_safety=0)
        with pytest.raises(NodeDownError):
            CASES[case][1](cluster)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_failed_node_with_k_safety_reads_the_buddy(self, case):
        prepare, statement = CASES[case]
        healthy = make_cluster(k_safety=1)
        if prepare is not None:
            prepare(healthy)
        expected = statement(healthy)

        cluster = self._failed(case, k_safety=1)
        before = counters(cluster)
        answer = statement(cluster)
        moved = {name: value - before[name]
                 for name, value in counters(cluster).items()}
        assert answer == expected
        assert moved["buddy_scans"] >= 1
        assert moved["rows_scanned"] > 0

    @pytest.mark.parametrize("statement", [
        "DELETE FROM t WHERE k BETWEEN 10 AND 20",
        "UPDATE t SET y = y + 1 WHERE k BETWEEN 10 AND 20",
    ])
    def test_dml_prunes_row_groups_by_its_where(self, statement):
        cluster = make_cluster(k_safety=0)
        before = counters(cluster)
        assert cluster.sql(statement).rows() == [(11,)]
        # Three of each segment's four row groups lie outside the range.
        assert (counters(cluster)["rowgroups_pruned"]
                - before["rowgroups_pruned"]) == 3 * (ROUNDS - 1)

    def test_failed_rebuild_keeps_the_old_sample(self):
        """A rebuild reads the base before it drops the old sample table:
        with node 1 down and no buddy it raises and leaves the sample in
        place, and the refresh after recovery rebuilds it."""
        healthy = make_cluster(k_safety=0)
        prepare_sample(healthy)
        healthy.sql("DELETE FROM t WHERE k = 5")  # a delete forces a rebuild
        expected = refresh_sample_answer(healthy)
        assert expected[0] == "rebuild"

        cluster = make_cluster(k_safety=0)
        prepare_sample(cluster)
        built = cluster.aqp.get("s")
        cluster.sql("DELETE FROM t WHERE k = 5")
        cluster.fail_node(1)
        with pytest.raises(NodeDownError):
            refresh_sample(cluster, "s")
        assert cluster.catalog.has_table("s")
        assert cluster.aqp.get("s") == built
        cluster.recover_node(1)
        assert refresh_sample_answer(cluster) == expected


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@pytest.mark.parametrize("failure", ["node_down", "scan_fault"])
def test_background_sample_fold_survives_a_failed_read(failure):
    """The mover's fold of a stale sample meets a down node (no buddy) or
    an injected ``scan.stream`` error: the daemon keeps cycling, the sample
    stays stale, and the first pass after the fault clears folds it.  A
    second sample, on a K-safe table the fault does not touch, still folds
    in the same passes."""
    cluster = make_cluster(k_safety=0)
    cluster.create_table("u", [ColumnSchema("k", SqlType.INTEGER)],
                         k_safety=1)
    cluster.bulk_load("u", {"k": np.arange(ROWS)})
    cluster.sql(SAMPLE)
    cluster.sql("CREATE SAMPLE su ON u UNIFORM RATE 50% SEED 7")
    built_at = cluster.aqp.get("s").commit_epoch
    if failure == "node_down":
        cluster.fail_node(1)
    else:
        cluster.install_fault_plan(FaultPlan.single(
            "scan.stream", FaultKind.ERROR, match={"table": "t"}, times=-1))
    try:
        trickle(cluster)
        cluster.catalog.get_table("u").insert({"k": [ROWS]}, direct=False)
        cluster.tuple_mover.notify()

        def folds_tried() -> int:
            return sum(1 for span in cluster.tracer.roots()
                       if span.name == "aqp.refresh"
                       and span.attributes.get("sample") == "s")

        # A second attempt means the daemon outlived the first failure;
        # ``su`` sorts after ``s`` and folds anyway.
        _wait_for(lambda: folds_tried() >= 2
                  and cluster.aqp.get("su").commit_epoch
                  == cluster.current_epoch)
        assert cluster.aqp.get("s").commit_epoch == built_at
        assert cluster.aqp.get("su").base_rows == ROWS + 1

        if failure == "node_down":
            cluster.recover_node(1)
        else:
            cluster.clear_fault_plan()
        cluster.tuple_mover.notify()
        _wait_for(lambda: cluster.aqp.get("s").commit_epoch
                  == cluster.current_epoch)
        record = cluster.aqp.get("s")
        assert record.base_rows == ROUNDS * ROWS + 3
    finally:
        cluster.tuple_mover.stop()


def test_standalone_table_rows_scan():
    """A table outside a cluster stamps epoch 0, which every snapshot sees:
    its rows count and scan."""
    table = Table("t", [ColumnSchema("a", SqlType.INTEGER)],
                  RoundRobinSegmentation(), 2)
    assert table.insert({"a": np.arange(10)}) == 10
    assert table.row_count == 10
    assert table.segment_row_counts() == [5, 5]
    scanned = [int(value) for node in range(2)
               for batch in table.iter_node_batches(node, ["a"])
               for value in batch["a"]]
    assert sorted(scanned) == list(range(10))


def test_insert_only_since_is_the_one_delta_trust_check():
    cluster = make_cluster(k_safety=0)
    table = cluster.catalog.get_table("t")
    since = cluster.current_epoch
    trickle(cluster)
    assert table.insert_only_since(since)
    cluster.sql("DELETE FROM t WHERE k = 5001")
    assert not table.insert_only_since(since)
    # A window starting after the delete is insert-only again ...
    after_delete = cluster.current_epoch
    trickle(cluster)
    assert table.insert_only_since(after_delete)
    # ... until the AHM passes its start.
    cluster.advance_ahm()
    assert not table.insert_only_since(after_delete)
    cluster.tuple_mover.stop()
