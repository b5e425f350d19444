"""ROS units with epoch runs: every reachable snapshot against a model, and
the work a trickle-insert read costs.

A moveout encodes a segment's whole committed WOS prefix into row groups of
at most 65 536 rows, each keeping its rows' commit epochs as ``(epoch,
rows)`` runs.  The property test checks that whatever the mix of INSERT,
DELETE, UPDATE, moveout and mergeout, every readable epoch, the insert
delta since the AHM and the per-segment row counts still match a plain
numpy model of what was inserted and deleted when.  The work-count tests
pin what a read costs in batches: one per ROS unit plus the WOS, not one
per INSERT.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import ColumnSchema, SqlType
from repro.vertica import HashSegmentation, VerticaCluster
from repro.vertica.txn.epochs import Snapshot
from tests.conftest import OnDisk

NODE_COUNT = 3
ROWGROUP_ROWS = 65_536


def make_cluster(data_dir=None, node_count: int = NODE_COUNT) -> VerticaCluster:
    """A cluster whose Tuple Mover only runs when a test calls it."""
    cluster = VerticaCluster(node_count=node_count, data_dir=data_dir)
    cluster.tuple_mover.notify = lambda: None
    cluster.create_table(
        "t",
        [ColumnSchema("k", SqlType.INTEGER), ColumnSchema("v", SqlType.FLOAT)],
        segmentation=HashSegmentation("k"),
    )
    return cluster


# ---------------------------------------------------------------------------
# epoch-window property test
# ---------------------------------------------------------------------------

class RowModel:
    """Every row ever inserted, with its insert and delete epochs."""

    NEVER = np.iinfo(np.int64).max

    def __init__(self) -> None:
        self.k = np.empty(0, dtype=np.int64)
        self.v = np.empty(0, dtype=np.float64)
        self.inserted = np.empty(0, dtype=np.int64)
        self.deleted = np.empty(0, dtype=np.int64)

    def insert(self, k, v, epoch: int) -> None:
        self.k = np.concatenate([self.k, np.asarray(k, dtype=np.int64)])
        self.v = np.concatenate([self.v, np.asarray(v, dtype=np.float64)])
        self.inserted = np.concatenate(
            [self.inserted, np.full(len(k), epoch, dtype=np.int64)])
        self.deleted = np.concatenate(
            [self.deleted, np.full(len(k), self.NEVER, dtype=np.int64)])

    def matching(self, lo: int, hi: int, epoch: int) -> np.ndarray:
        return self.visible(epoch) & (self.k >= lo) & (self.k <= hi)

    def visible(self, epoch: int, since: int = -1) -> np.ndarray:
        return ((self.inserted > since) & (self.inserted <= epoch)
                & (self.deleted > epoch))

    def rows(self, mask: np.ndarray) -> list[tuple[int, float]]:
        return sorted(zip(self.k[mask].tolist(), self.v[mask].tolist()))


def sorted_rows(arrays) -> list[tuple[int, float]]:
    return sorted(zip(np.asarray(arrays["k"]).tolist(),
                      np.asarray(arrays["v"]).tolist()))


keys = st.integers(0, 40)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(keys, min_size=1, max_size=4)),
        st.tuples(st.just("delete"), keys, st.integers(0, 8)),
        st.tuples(st.just("update"), keys, st.integers(0, 8)),
        st.tuples(st.just("moveout")),
        st.tuples(st.just("mergeout")),
    ),
    min_size=1, max_size=10,
)

class TestEpochWindows:
    """After every step, every reachable view of the table equals the model:
    ``AT EPOCH e`` for each readable ``e``, the delta since the AHM,
    and ``segment_row_counts`` against the rows a scan really yields."""

    def test_every_reachable_view_matches_the_model(self, data_dir):
        examples = itertools.count()

        @settings(max_examples=20, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(bulk=st.integers(0, 30), ops=operations)
        def history(bulk, ops):
            self._replay(None if data_dir is None
                         else data_dir / f"example{next(examples)}", bulk, ops)

        history()

    def _replay(self, data_dir, bulk: int, ops: list[tuple]) -> None:
        cluster = make_cluster(data_dir)
        table = cluster.catalog.get_table("t")
        model = RowModel()
        if bulk:
            cluster.bulk_load("t", {"k": np.arange(bulk) % 41,
                                    "v": np.arange(bulk, dtype=np.float64)})
            model.insert(np.arange(bulk) % 41, np.arange(bulk), 1)
        self._check(cluster, table, model)
        for step, op in enumerate(ops):
            before = cluster.current_epoch
            if op[0] == "insert":
                values = [float(100 * step + i) for i in range(len(op[1]))]
                cluster.sql("INSERT INTO t VALUES " + ", ".join(
                    f"({k}, {v})" for k, v in zip(op[1], values)))
                model.insert(op[1], values, cluster.current_epoch)
            elif op[0] in ("delete", "update"):
                lo, hi = op[1], op[1] + op[2]
                hit = model.matching(lo, hi, before)
                if op[0] == "delete":
                    cluster.sql(f"DELETE FROM t WHERE k BETWEEN {lo} AND {hi}")
                else:
                    cluster.sql("UPDATE t SET v = v + 0.5 "
                                f"WHERE k BETWEEN {lo} AND {hi}")
                if hit.any():
                    epoch = cluster.current_epoch
                    assert epoch == before + 1
                    old_k, old_v = model.k[hit], model.v[hit]
                    model.deleted[hit] = epoch
                    if op[0] == "update":
                        model.insert(old_k, old_v + 0.5, epoch)
                else:
                    assert cluster.current_epoch == before
            elif op[0] == "moveout":
                cluster.tuple_mover.run_moveout()
            else:
                cluster.advance_ahm()
                cluster.tuple_mover.run_mergeout()
            self._check(cluster, table, model)
        cluster.tuple_mover.stop()

    @staticmethod
    def _check(cluster, table, model: RowModel) -> None:
        epochs = table.epochs
        ahm, current = epochs.ancient_history_mark, epochs.current_epoch
        for epoch in range(ahm, current + 1):
            got = cluster.sql(f"AT EPOCH {epoch} SELECT k, v FROM t")
            assert sorted_rows({"k": got.column("k"), "v": got.column("v")}) \
                == model.rows(model.visible(epoch)), epoch
            snapshot = Snapshot(epoch)
            yielded = [sum(len(batch["k"]) for batch in table.iter_node_batches(
                node, ["k"], snapshot=snapshot))
                for node in range(table.node_count)]
            assert table.segment_row_counts(snapshot) == yielded, epoch
        delta = cluster.gather_table("t", ["k", "v"], since_epoch=ahm)
        assert sorted_rows(delta) == model.rows(model.visible(current, ahm))


class TestEpochWindowsOnDisk(OnDisk, TestEpochWindows):
    pass


# ---------------------------------------------------------------------------
# work counts: a trickle read costs one batch per ROS unit plus the WOS
# ---------------------------------------------------------------------------

class TestTrickleReadWork:
    CYCLES = 4
    INSERTS_PER_CYCLE = 12

    def _aggregates(self, cluster, epochs) -> dict:
        """``COUNT(*), SUM(v)`` at the latest snapshot and at every epoch
        in ``epochs``, as exact Python values."""
        query = "SELECT COUNT(*) AS n, SUM(v) AS s FROM t"
        answers = {"latest": cluster.sql(query).rows()}
        for epoch in epochs:
            answers[epoch] = cluster.sql(f"AT EPOCH {epoch} {query}").rows()
        return answers

    def test_read_batches_follow_units_not_inserts(self):
        cluster = make_cluster()
        table = cluster.catalog.get_table("t")
        rng = np.random.default_rng(7)
        for _ in range(2):
            cluster.bulk_load("t", {"k": rng.integers(0, 10**6, 3_000),
                                    "v": rng.normal(size=3_000)})
        # With the WOS empty, rowgroup_count is the segment's ROS units.
        units = [segment.rowgroup_count for segment in table.segments]
        bulk_units = max(units)
        batches = cluster.metrics.counter("batches_scanned")

        def read_batches() -> float:
            scanned = batches.value
            cluster.sql("SELECT COUNT(*), SUM(v) FROM t")
            return batches.value - scanned

        key = 10**7
        for cycle in range(1, self.CYCLES + 1):
            for _ in range(self.INSERTS_PER_CYCLE):
                cluster.sql(f"INSERT INTO t VALUES ({key}, {float(rng.normal())!r})")
                key += 1
            budget = NODE_COUNT * (bulk_units + cycle + 1)
            assert read_batches() <= budget
            ahm = table.epochs.ancient_history_mark
            readable = range(ahm, cluster.current_epoch + 1)
            before = self._aggregates(cluster, readable)
            moved = [segment.wos_rows for segment in table.segments]
            fan_out = [segment.rowgroup_count for segment in table.segments]
            cluster.tuple_mover.run_moveout()
            # One moveout adds ceil(rows moved / 65 536) units per segment:
            # exactly the row groups rowgroup_count already counted.
            after = [segment.rowgroup_count for segment in table.segments]
            assert [n - m for n, m in zip(after, units)] == \
                [-(-rows // ROWGROUP_ROWS) for rows in moved]
            assert after == fan_out
            units = after
            # Bit-identical answers at every readable epoch across it.
            assert self._aggregates(cluster, readable) == before
            assert read_batches() <= budget
        cluster.tuple_mover.stop()

    def test_wos_scans_in_the_batches_moveout_writes(self):
        """Past 65 536 rows the WOS splits where moveout splits it, and a
        unit straddling an ``AT EPOCH`` window yields only its rows."""
        cluster = make_cluster(node_count=1)
        table = cluster.catalog.get_table("t")
        rows = 30_000
        for i in range(3):
            table.insert({"k": np.arange(i * rows, (i + 1) * rows),
                          "v": np.full(rows, float(i))}, direct=False)
        first, last = cluster.current_epoch - 2, cluster.current_epoch

        def batch_sizes(epoch):
            return [len(batch["k"]) for batch in table.iter_node_batches(
                0, ["k", "v"], snapshot=Snapshot(epoch))]

        before = {epoch: batch_sizes(epoch) for epoch in (first + 1, last)}
        assert before == {first + 1: [2 * rows],
                          last: [ROWGROUP_ROWS, 3 * rows - ROWGROUP_ROWS]}
        assert cluster.tuple_mover.run_moveout() == 3 * rows
        units = table.segments[0].capture().units
        assert [unit.runs for unit in units] == [
            ((first, rows), (first + 1, rows),
             (last, ROWGROUP_ROWS - 2 * rows)),
            ((last, 3 * rows - ROWGROUP_ROWS),)]
        assert {epoch: batch_sizes(epoch) for epoch in before} == before
        cluster.tuple_mover.stop()


@pytest.mark.parametrize("node_count", [1, NODE_COUNT])
def test_rowgroup_count_is_the_batches_a_scan_yields(node_count):
    cluster = make_cluster(node_count=node_count)
    table = cluster.catalog.get_table("t")
    cluster.bulk_load("t", {"k": np.arange(500), "v": np.ones(500)})
    for i in range(20):
        cluster.sql(f"INSERT INTO t VALUES ({1000 + i}, 1.0)")
    for node, segment in enumerate(table.segments):
        assert segment.rowgroup_count == sum(
            1 for _ in table.iter_node_batches(node, ["k"]))
