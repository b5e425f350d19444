"""MVCC engine tests: epochs, delete vectors, WOS/ROS, and the Tuple Mover.

The acceptance bar for the mutation engine: every scan — SQL
aggregate or prediction UDTF — is consistent with *some*
committed epoch while inserts and deletes run concurrently; ``AT EPOCH``
reproduces historical counts exactly; and Tuple Mover moveout/mergeout are
invisible to any still-reachable snapshot.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ExecutionError,
    SqlAnalysisError,
    SqlSyntaxError,
    StorageError,
)
from repro.storage import ColumnSchema, SqlType
from repro.vertica import HashSegmentation, VerticaCluster
from repro.vertica.txn import DeleteVector, EpochClock, TupleMoverConfig
from tests.conftest import OnDisk

NODE_COUNT = 3


def make_cluster(mover: TupleMoverConfig | None = None,
                 data_dir=None, **options) -> VerticaCluster:
    cluster = VerticaCluster(node_count=NODE_COUNT, mover=mover,
                             data_dir=data_dir, **options)
    cluster.create_table(
        "t",
        [ColumnSchema("k", SqlType.INTEGER), ColumnSchema("v", SqlType.FLOAT)],
        segmentation=HashSegmentation("k"),
    )
    return cluster


@pytest.fixture
def new_cluster(data_dir):
    """``make_cluster`` in the storage mode of the requesting test class."""
    return functools.partial(make_cluster, data_dir=data_dir)


def segment_files(data_dir) -> list:
    """Every file under a deployment's ``data_dir`` (none for in-memory)."""
    if data_dir is None:
        return []
    return sorted(p for p in data_dir.rglob("*") if p.is_file())


def load(cluster: VerticaCluster, n: int, key_base: int = 0) -> None:
    cluster.bulk_load("t", {
        "k": np.arange(key_base, key_base + n),
        "v": np.full(n, 1.0),
    })


def count(cluster: VerticaCluster, at_epoch: int | None = None) -> int:
    prefix = f"AT EPOCH {at_epoch} " if at_epoch is not None else ""
    return int(cluster.sql(prefix + "SELECT count(*) FROM t").scalar())


# ---------------------------------------------------------------------------
# epoch clock
# ---------------------------------------------------------------------------

class TestEpochClock:
    def test_watermark_trails_pending_commits(self):
        clock = EpochClock()
        e1 = clock.begin()
        e2 = clock.begin()
        assert e2 == e1 + 1
        assert clock.current_epoch == e1 - 1  # both still pending
        clock.commit(e2)
        assert clock.current_epoch == e1 - 1  # e1 still blocks the watermark
        clock.commit(e1)
        assert clock.current_epoch == e2

    def test_abort_releases_the_watermark(self):
        clock = EpochClock()
        e1 = clock.begin()
        e2 = clock.begin()
        clock.commit(e2)
        clock.abort(e1)
        assert clock.current_epoch == e2

    def test_snapshot_rejects_future_and_purged_epochs(self):
        clock = EpochClock()
        clock.commit(clock.begin())
        with pytest.raises(ExecutionError):
            clock.snapshot(clock.current_epoch + 1)
        clock.commit(clock.begin())
        clock.advance_ahm(clock.current_epoch)
        with pytest.raises(ExecutionError):
            clock.snapshot(clock.ancient_history_mark - 1)
        # The AHM itself is still readable.
        assert clock.snapshot(clock.ancient_history_mark) is not None

    def test_ahm_is_clamped_and_never_retreats(self):
        clock = EpochClock()
        for _ in range(3):
            clock.commit(clock.begin())
        clock.advance_ahm(10_000)
        assert clock.ancient_history_mark == clock.current_epoch
        clock.advance_ahm(1)
        assert clock.ancient_history_mark == clock.current_epoch

    def test_on_advance_reports_watermark_deltas(self):
        deltas = []
        clock = EpochClock()
        clock.on_advance = deltas.append
        e1, e2 = clock.begin(), clock.begin()
        clock.commit(e2)            # watermark unchanged: no callback
        clock.commit(e1)            # watermark jumps over both
        assert sum(deltas) == 2


class TestDeleteVector:
    def test_first_delete_wins(self):
        dv = DeleteVector()
        assert dv.add(np.asarray([1, 2]), epoch=5) == 2
        assert dv.add(np.asarray([2, 3]), epoch=9) == 1
        frozen = dv.frozen()
        # Row 2 keeps its original epoch 5, so it is already invisible at 5.
        assert frozen.keep_mask(np.asarray([1, 2, 3]), epoch=5).tolist() == \
            [False, False, True]
        assert frozen.count_at(5) == 2
        assert frozen.count_at(9) == 3

    def test_rollback_drops_exactly_one_statement(self):
        dv = DeleteVector()
        dv.add(np.asarray([1]), epoch=5)
        dv.add(np.asarray([2, 3]), epoch=6)
        assert dv.rollback_epoch(6) == 2
        assert len(dv) == 1
        assert dv.frozen().keep_mask(np.asarray([2, 3]), epoch=9).all()

    def test_purge_is_copy_on_write(self):
        dv = DeleteVector()
        dv.add(np.asarray([1, 2]), epoch=3)
        before = dv.frozen()
        dv.purge(np.asarray([1]))
        # The earlier frozen capture still filters both rows.
        assert (~before.keep_mask(np.asarray([1, 2]), epoch=3)).all()
        assert dv.frozen().keep_mask(np.asarray([1]), epoch=3).all()


# ---------------------------------------------------------------------------
# SQL surface
# ---------------------------------------------------------------------------

class TestSqlMutations:
    def test_delete_filters_and_reports_count(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 100)
        assert cluster.sql("DELETE FROM t WHERE k < 30").scalar() == 30
        assert count(cluster) == 70
        # Deleted keys are gone from every query shape.
        assert cluster.sql("SELECT MIN(k) AS lo FROM t").scalar() == 30

    def test_delete_without_where_empties_the_table(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 50)
        assert cluster.sql("DELETE FROM t").scalar() == 50
        assert count(cluster) == 0

    def test_redelete_is_a_noop(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 40)
        assert cluster.sql("DELETE FROM t WHERE k < 10").scalar() == 10
        assert cluster.sql("DELETE FROM t WHERE k < 10").scalar() == 0
        assert count(cluster) == 30

    def test_update_rewrites_matched_rows(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 60)
        assert cluster.sql(
            "UPDATE t SET v = v + 9 WHERE k >= 50").scalar() == 10
        assert count(cluster) == 60
        assert cluster.sql("SELECT SUM(v) AS s FROM t").scalar() == \
            pytest.approx(60 + 90)

    def test_update_is_atomic_under_at_epoch(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 30)
        before = cluster.current_epoch
        cluster.sql("UPDATE t SET v = 5.0 WHERE k < 30")
        assert cluster.sql(
            f"AT EPOCH {before} SELECT SUM(v) AS s FROM t").scalar() == 30.0
        assert cluster.sql("SELECT SUM(v) AS s FROM t").scalar() == 150.0

    def test_r_models_rejects_mutation(self, new_cluster):
        cluster = new_cluster()
        with pytest.raises(SqlAnalysisError):
            cluster.sql("DELETE FROM R_Models")
        with pytest.raises(SqlAnalysisError):
            cluster.sql("UPDATE R_Models SET owner = 'x'")

    def test_update_validates_set_targets(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 10)
        with pytest.raises(SqlAnalysisError):
            cluster.sql("UPDATE t SET nope = 1")
        with pytest.raises(SqlAnalysisError):
            cluster.sql("UPDATE t SET v = 1, v = 2")

    def test_at_epoch_only_wraps_select(self, new_cluster):
        cluster = new_cluster()
        with pytest.raises(SqlSyntaxError):
            cluster.sql("AT EPOCH 1 DELETE FROM t")

    def test_at_epoch_bounds_checked(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 10)
        with pytest.raises(ExecutionError):
            cluster.sql(f"AT EPOCH {cluster.current_epoch + 5} "
                        "SELECT count(*) FROM t")

    def test_at_epoch_latest_matches_plain_select(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 25)
        cluster.sql("DELETE FROM t WHERE k < 5")
        assert cluster.sql(
            "AT EPOCH LATEST SELECT count(*) FROM t").scalar() == 20


class TestTimeTravel:
    def test_every_mutation_epoch_is_replayable(self, new_cluster):
        cluster = new_cluster()
        history = []
        load(cluster, 50)
        history.append((cluster.current_epoch, 50))
        cluster.sql("DELETE FROM t WHERE k < 20")
        history.append((cluster.current_epoch, 30))
        load(cluster, 15, key_base=100)
        history.append((cluster.current_epoch, 45))
        cluster.sql("UPDATE t SET v = 2.0 WHERE k >= 100")
        history.append((cluster.current_epoch, 45))
        for epoch, expected in history:
            assert count(cluster, at_epoch=epoch) == expected


# ---------------------------------------------------------------------------
# WOS and the Tuple Mover
# ---------------------------------------------------------------------------

class TestWosAndMover:
    def test_trickle_inserts_visible_before_moveout(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 20)
        for i in range(5):
            cluster.sql(f"INSERT INTO t VALUES ({1000 + i}, 2.0)")
        table = cluster.catalog.get_table("t")
        assert sum(seg.wos_rows for seg in table.segments) == 5
        assert count(cluster) == 25
        cluster.tuple_mover.stop()

    def test_moveout_preserves_scan_order_bit_for_bit(self, new_cluster,
                                                      data_dir):
        cluster = new_cluster()
        load(cluster, 30)
        loaded_files = segment_files(data_dir)
        # A data_dir deployment keeps its ROS in segment files, and only it.
        assert bool(loaded_files) == (data_dir is not None)
        for i in range(6):
            cluster.sql(f"INSERT INTO t VALUES ({1000 + i}, {float(i)})")
        query = "SELECT k, v FROM t"
        before = cluster.sql(query).rows()
        moved = cluster.tuple_mover.run_moveout()
        assert moved == 6
        table = cluster.catalog.get_table("t")
        assert sum(seg.wos_rows for seg in table.segments) == 0
        assert cluster.sql(query).rows() == before
        assert (len(segment_files(data_dir)) > len(loaded_files)) == \
            (data_dir is not None)
        cluster.tuple_mover.stop()

    def test_mergeout_purges_only_behind_the_ahm(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 80)
        cluster.sql("DELETE FROM t WHERE k < 25")
        # AHM is still at 0: nothing is eligible.
        assert cluster.tuple_mover.run_mergeout() == (0, 0)
        pinned = cluster.current_epoch
        before = cluster.sql(
            f"AT EPOCH {pinned} SELECT k, v FROM t ORDER BY k").rows()
        cluster.advance_ahm()
        rewritten, purged = cluster.tuple_mover.run_mergeout()
        assert rewritten > 0 and purged == 25
        # The still-reachable pinned snapshot is bit-identical post-purge.
        after = cluster.sql(
            f"AT EPOCH {pinned} SELECT k, v FROM t ORDER BY k").rows()
        assert after == before
        assert count(cluster) == 55
        cluster.tuple_mover.stop()

    def test_mover_gauges_reconcile(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 40)
        cluster.sql("DELETE FROM t WHERE k < 10")
        for i in range(4):
            cluster.sql(f"INSERT INTO t VALUES ({500 + i}, 1.0)")
        assert cluster.metrics.gauge("wos_rows").now == 4
        assert cluster.metrics.gauge("delete_vector_rows").now == 10
        cluster.tuple_mover.run_moveout()
        cluster.advance_ahm()
        cluster.tuple_mover.run_mergeout()
        assert cluster.metrics.gauge("wos_rows").now == 0
        assert cluster.metrics.gauge("delete_vector_rows").now == 0
        assert cluster.metrics.counter("mergeout_bytes_rewritten").value > 0
        cluster.tuple_mover.stop()

    def test_drop_table_returns_mvcc_gauges_to_zero(self, new_cluster):
        """A dropped table's WOS rows and delete-vector entries will never
        be moved out or purged, so DROP TABLE gives them back, and its
        segments leave the mover's moveout age book."""
        cluster = new_cluster()
        mover = cluster.tuple_mover
        mover.notify = lambda: None
        load(cluster, 100)
        for i in range(5):
            cluster.sql(f"INSERT INTO t VALUES ({1000 + i}, 2.0)")
        cluster.sql("DELETE FROM t WHERE k < 10")
        # Under the thresholds nothing moves, but the WOS ages are booked.
        assert mover.run_moveout(thresholds=True) == 0
        assert mover._wos_first_seen
        cluster.sql("DROP TABLE t")
        assert not mover._wos_first_seen
        mover.run_moveout()
        cluster.advance_ahm()
        mover.run_mergeout()
        assert cluster.metrics.gauge("wos_rows").now == 0
        assert cluster.metrics.gauge("delete_vector_rows").now == 0

    def test_mover_emits_spans(self, new_cluster):
        cluster = new_cluster()
        load(cluster, 30)
        cluster.sql("DELETE FROM t WHERE k < 5")
        cluster.sql("INSERT INTO t VALUES (900, 1.0)")
        cluster.tuple_mover.run_moveout()
        cluster.advance_ahm()
        cluster.tuple_mover.run_mergeout()
        names = {span.name for span in cluster.tracer.roots()}
        assert "txn.moveout" in names
        assert "txn.mergeout" in names
        cluster.tuple_mover.stop()


# ---------------------------------------------------------------------------
# concurrency: torn batches and the end-to-end demo
# ---------------------------------------------------------------------------

class TestInsertAtomicity:
    BATCH = 50

    def test_concurrent_scans_never_see_a_torn_batch(self, new_cluster):
        """Satellite regression: a whole insert batch commits at one epoch,
        so a scan racing the insert sees a multiple of the batch size.

        This is the stress test to run under ``REPROLINT_LOCK_CHECK=1``:
        the instrumented locks assert ordering while scans race inserts.
        """
        cluster = new_cluster(
            TupleMoverConfig(moveout_rows=1 << 30, moveout_age_seconds=1e9))
        table = cluster.catalog.get_table("t")
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            rng = np.random.default_rng(5)
            try:
                for i in range(40):
                    direct = bool(i % 2)
                    table.insert({
                        "k": rng.integers(0, 10_000, self.BATCH),
                        "v": rng.normal(size=self.BATCH),
                    }, direct=direct)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(repr(exc))
            finally:
                stop.set()

        observed = []
        thread = threading.Thread(target=writer)
        thread.start()
        while not stop.is_set():
            observed.append(count(cluster))
        thread.join()
        observed.append(count(cluster))
        assert not failures, failures
        assert observed[-1] == 40 * self.BATCH
        torn = [n for n in observed if n % self.BATCH != 0]
        assert not torn, f"scans saw torn insert batches: {torn}"
        cluster.tuple_mover.stop()


class TestConcurrencyDemo:
    """The PR's demo: trickle INSERTs and DELETEs race repeated scans while
    the Tuple Mover runs; every scan lands on a committed epoch."""

    def test_scans_are_epoch_consistent_under_mutation(self, new_cluster):
        from repro.algorithms import KMeansModel
        from repro.deploy import deploy_model

        cluster = new_cluster(
            TupleMoverConfig(moveout_rows=32, moveout_age_seconds=0.01,
                             interval_seconds=0.005))
        cluster.create_table("pts", [
            ColumnSchema("k", SqlType.INTEGER),
            ColumnSchema("c0", SqlType.FLOAT),
            ColumnSchema("c1", SqlType.FLOAT),
        ], segmentation=HashSegmentation("k"))
        rng = np.random.default_rng(11)
        n = 400
        cluster.bulk_load("pts", {
            "k": np.arange(n),
            "c0": rng.normal(size=n),
            "c1": rng.normal(size=n),
        })
        deploy_model(cluster, KMeansModel(
            centers=np.asarray([[1.0, 1.0], [-1.0, -1.0]]),
            inertia=0.0, iterations=1, converged=True,
            n_observations=2, cluster_sizes=np.asarray([1, 1]),
        ), "km")

        table = cluster.catalog.get_table("pts")
        history: list[tuple[int, int]] = []   # (epoch, committed count)
        history.append((cluster.current_epoch, n))
        done = threading.Event()

        def mutator():
            rows = n
            deleted_below = 0
            try:
                for i in range(40):
                    if i % 5 == 4:
                        deleted_below += 10
                        gone = int(cluster.sql(
                            f"DELETE FROM pts WHERE k < {deleted_below}"
                        ).scalar())
                        rows -= gone
                    else:
                        batch = 8
                        table.insert({
                            "k": np.arange(1_000 + i * batch,
                                           1_000 + (i + 1) * batch),
                            "c0": rng.normal(size=batch),
                            "c1": rng.normal(size=batch),
                        }, direct=False)
                        cluster.tuple_mover.notify()
                        rows += batch
                    history.append((cluster.current_epoch, rows))
            finally:
                done.set()

        observed: list[int] = []
        thread = threading.Thread(target=mutator)
        thread.start()
        i = 0
        while not done.is_set():
            if i % 8 == 7:
                result = cluster.sql(
                    "SELECT kmeansPredict(c0, c1 USING PARAMETERS "
                    "model='km') OVER (PARTITION BEST) FROM pts")
                observed.append(len(result))
            else:
                observed.append(int(
                    cluster.sql("SELECT count(*) FROM pts").scalar()))
            i += 1
        thread.join()

        committed = {rows for _, rows in history}
        stray = [n_ for n_ in observed if n_ not in committed]
        assert not stray, f"scans saw uncommitted states: {stray}"

        # AT EPOCH reproduces every recorded historical count exactly.
        for epoch, rows in history:
            assert int(cluster.sql(
                f"AT EPOCH {epoch} SELECT count(*) FROM pts"
            ).scalar()) == rows

        # The background mover actually ran during the test.
        deadline = time.monotonic() + 5.0
        while (cluster.tuple_mover.moveout_passes == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert cluster.tuple_mover.moveout_passes > 0

        # Post-mergeout scans are bit-identical to the pre-mergeout
        # snapshot at the same epoch.
        pinned = cluster.current_epoch
        query = f"AT EPOCH {pinned} SELECT k, c0, c1 FROM pts ORDER BY k"
        before = cluster.sql(query).rows()
        cluster.advance_ahm()
        cluster.tuple_mover.run_moveout()
        cluster.tuple_mover.run_mergeout()
        assert cluster.sql(query).rows() == before
        cluster.tuple_mover.stop()


# ---------------------------------------------------------------------------
# the same engine over file-backed storage
# ---------------------------------------------------------------------------

class TestSqlMutationsOnDisk(OnDisk, TestSqlMutations):
    pass


class TestTimeTravelOnDisk(OnDisk, TestTimeTravel):
    pass


class TestWosAndMoverOnDisk(OnDisk, TestWosAndMover):
    pass


class TestInsertAtomicityOnDisk(OnDisk, TestInsertAtomicity):
    pass


class TestConcurrencyDemoOnDisk(OnDisk, TestConcurrencyDemo):
    pass


class TestFailedInsertOnDisk:
    def test_rolled_back_load_leaves_no_files(self, tmp_path, monkeypatch):
        """A bulk load that fails on the last node must take back the
        segment files the earlier nodes already wrote: the epoch was
        pending, so nothing can be reading them."""
        cluster = make_cluster(data_dir=tmp_path)
        table = cluster.catalog.get_table("t")
        seen_at_failure = []

        def failing_append(arrays, epoch=0):
            seen_at_failure.extend(segment_files(tmp_path))
            raise StorageError("injected: disk full")

        monkeypatch.setattr(table.segments[-1], "append", failing_append)
        with pytest.raises(StorageError, match="disk full"):
            load(cluster, 300)
        assert seen_at_failure, "precondition: earlier nodes had written"
        assert segment_files(tmp_path) == []
        assert count(cluster) == 0
        # The aborted epoch does not wedge the clock: a retry commits.
        monkeypatch.undo()
        load(cluster, 300)
        assert count(cluster) == 300
        assert segment_files(tmp_path)


# ---------------------------------------------------------------------------
# physical layout: pinned in memory, identical on disk
# ---------------------------------------------------------------------------

def ros_layout(table) -> list[list[tuple[tuple[int, int], ...]]]:
    """Per segment, the epoch runs — ``(epoch, rows)`` pairs — of every ROS
    unit in scan order."""
    layout = []
    for segment in table.segments:
        units = segment.capture().units
        for unit in units:
            assert sum(rows for _, rows in unit.runs) == unit.rowgroup.row_count
        layout.append([unit.runs for unit in units])
    return layout


def scripted_history(data_dir=None) -> list[dict]:
    """Bulk load, trickle, DELETE, moveout, AHM advance, mergeout — three
    rounds, so that moveout runs both ahead of and behind the AHM and
    mergeout both compacts and rewrites for purge only.  After each Tuple
    Mover pass, records the ROS layout, the mover counters, a zone-map
    probe, and a digest of the full scan at every still-readable epoch and
    of the insert delta since the AHM.
    """
    # codec="none" keeps mergeout_bytes_rewritten independent of the zlib
    # build; the background mover would race the scripted passes.
    cluster = make_cluster(data_dir=data_dir, codec="none")
    cluster.tuple_mover.notify = lambda: None
    table = cluster.catalog.get_table("t")
    mover = cluster.tuple_mover
    checkpoints = []

    def digest(arrays) -> str:
        return hashlib.sha256(
            arrays["k"].tobytes() + arrays["v"].tobytes()).hexdigest()

    def checkpoint(pass_result) -> None:
        epochs = table.epochs
        ahm = epochs.ancient_history_mark
        pruned_before = cluster.metrics.counter("rowgroups_pruned").value
        probe = cluster.sql(
            "SELECT count(*) FROM t WHERE k >= 1000000 AND k < 1001000"
        ).scalar()
        checkpoints.append({
            "pass": pass_result,
            "layout": ros_layout(table),
            "bytes_rewritten": cluster.metrics.counter("mergeout_bytes_rewritten").value,
            "probe": (probe,
                      cluster.metrics.counter("rowgroups_pruned").value - pruned_before),
            "scans": {
                epoch: digest(cluster.gather_table(
                    "t", ["k", "v"], snapshot=epochs.snapshot(epoch)))
                for epoch in range(ahm, epochs.current_epoch + 1)
            },
            "delta": digest(cluster.gather_table(
                "t", ["k", "v"], since_epoch=ahm)),
        })

    load(cluster, 210_000)
    load(cluster, 3_000, key_base=1_000_000)
    for i in range(9):
        cluster.sql(f"INSERT INTO t VALUES ({2_000_000 + i}, 2.0)")
    cluster.sql("DELETE FROM t WHERE k < 600")
    checkpoint(mover.run_moveout())             # 0: every batch ahead of the AHM
    cluster.advance_ahm()
    checkpoint(mover.run_mergeout())            # 1: compaction + purge
    for i in range(6):
        cluster.sql(f"INSERT INTO t VALUES ({3_000_000 + i}, 3.0)")
    cluster.advance_ahm()
    cluster.sql("INSERT INTO t VALUES "
                "(4000000, 4.0), (4000001, 4.0), (4000002, 4.0)")
    checkpoint(mover.run_moveout())             # 2: one unit per segment, AHM inside it
    checkpoint(mover.run_mergeout())            # 3: only units behind the AHM compact
    cluster.sql("DELETE FROM t WHERE k >= 1000000 AND k < 1000100")
    cluster.advance_ahm()
    checkpoint(mover.run_mergeout())            # 4: purge-only rewrites on node 2
    return checkpoints


@pytest.fixture(scope="module")
def memory_history():
    return scripted_history()


#: sha256 of k ‖ v of the full scan at every readable epoch, and of the
#: insert delta since the AHM, after each checkpoint of
#: :func:`scripted_history`.  These are what *any* ROS layout must give
#: back: moveout and mergeout move rows between units and purge history
#: behind the AHM, never change what a reachable snapshot returns.
EMPTY_DIGEST = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
AFTER_DELETE = "22abd842c195595ed4d235f62340f1642ade920d500000f32184e48fbffc17d0"
ROUND_TWO = {18: "09e7f817e933cad7402a79ab1aa6ed4a917f40f1e2fc9036b9e31ad509110d4e",
             19: "8fe252c2aa29f1b994ab8e9c921489ab25e4d9a35bfda82bfdf4b13270aa2d96"}
ROUND_TWO_DELTA = "b0071f7918457b9ee8f8a4764b955806636590464816ee7814f95249e11ae403"
PINNED_SCANS = [
    {0: EMPTY_DIGEST,
     1: "2f45d3b13995f2e4225347baf50729747aac317e285409e20649252302ee55c1",
     2: "aa1df3aceb30d0c5c7cde66959a8956a8387d9383de3138b6ff0a47aa02c3e86",
     3: "aabb913af00ebdcb67f547524f0a983d4f6d6fa2e2943be64858f92e7c8b2589",
     4: "51bdac52e4d7676d034861b91589f73d3b7b031211e8cec33bd8561ca9acde0f",
     5: "2a7b17a2ed3f0f6afe9160fa1f181bf1200dddb12dc80a28581f8f5b793b319b",
     6: "94d5db03c2431c0cdd48b75ea3c04142cd635306e7edd162c117c37e20b49dff",
     7: "89718e81e68dedfa92a2b7c163bee00323e9836bdf76c67710ab07fb7151b261",
     8: "7bea77c9456adc825c8b31eddab2973b629638c3ebcf1646c443c768fe7c79a9",
     9: "efe0d9ed509243f9a0d781cfef4c62c78675e14c7e965db3946fd54699f1223a",
     10: "6345af12f091b0f0f0706152db69704ed64edc968f31a8ff41062e98bcbc35db",
     11: "67d896dece227015a8bdaae56db251a1fea2fbbed4ff3118040595fd2822d029",
     12: AFTER_DELETE},
    {12: AFTER_DELETE},
    ROUND_TWO,
    ROUND_TWO,
    {20: "daea71e380fabdfb91aa7500ee5ec3b0ae62b3fc12c458a6095508d3445f971c"},
]
PINNED_DELTAS = [AFTER_DELETE, EMPTY_DIGEST, ROUND_TWO_DELTA, ROUND_TWO_DELTA,
                 EMPTY_DIGEST]


class TestRosLayout:
    def test_scans_deltas_and_probe_answers_are_pinned(self, memory_history):
        """What readers see, at every checkpoint and every readable epoch,
        independent of how the rows are laid out in ROS units."""
        assert [c["scans"] for c in memory_history] == PINNED_SCANS
        assert [c["delta"] for c in memory_history] == PINNED_DELTAS
        assert [c["probe"][0] for c in memory_history] == [
            1000, 1000, 1000, 1000, 900]

    def test_memory_layout_is_pinned(self, memory_history):
        """Characterisation: units, epoch runs and order after every append,
        moveout and mergeout — ``space_amp`` in the benchmark hangs on it.
        A moveout is one run per commit epoch inside one unit per segment;
        mergeout waits until a unit's newest run is behind the AHM."""
        assert [c["pass"] for c in memory_history] == [
            9, (5098860, 600), 9, (1703532, 0), (3523638, 100)]
        assert [c["bytes_rewritten"] for c in memory_history] == [
            0, 5098860, 5098860, 6802392, 10326030]
        assert [c["probe"][1] for c in memory_history] == [9, 3, 6, 5, 3]
        assert [c["layout"] for c in memory_history] == [
            [[((1, 65536),), ((1, 4644),), ((2, 996),),
              ((3, 1), (6, 1), (8, 1), (9, 1), (10, 1))],
             [((1, 65536),), ((1, 4125),), ((2, 1020),), ((4, 1),)],
             [((1, 65536),), ((1, 4623),), ((2, 984),),
              ((5, 1), (7, 1), (11, 1))]],
            [[((10, 65536),), ((10, 5438),)],
             [((4, 65536),), ((4, 4937),)],
             [((11, 65536),), ((11, 5426),)]],
            [[((10, 65536),), ((10, 5438),), ((17, 1), (19, 1))],
             [((4, 65536),), ((4, 4937),), ((15, 1), (19, 2))],
             [((11, 65536),), ((11, 5426),),
              ((13, 1), (14, 1), (16, 1), (18, 1))]],
            [[((10, 65536),), ((10, 5438),), ((17, 1), (19, 1))],
             [((4, 65536),), ((4, 4937),), ((15, 1), (19, 2))],
             [((18, 65536),), ((18, 5430),)]],
            [[((19, 65536),), ((19, 5405),)],
             [((19, 65536),), ((19, 4908),)],
             [((18, 65536),), ((18, 5397),)]],
        ]

    def test_disk_storage_keeps_the_same_units_and_scans(self, memory_history,
                                                         tmp_path):
        """File-backed storage runs through the same code: same ROS units,
        same zone-map pruning, bit-identical scans at every epoch, and the
        same bytes rewritten (a block's size is its serialized length in
        either mode)."""
        disk_history = scripted_history(tmp_path)
        for key in ("pass", "layout", "bytes_rewritten", "probe", "scans", "delta"):
            assert [c[key] for c in disk_history] == \
                [c[key] for c in memory_history], key
