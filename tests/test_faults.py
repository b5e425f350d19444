"""Failure-scenario matrix for the fault-injection harness.

Every scenario follows the same contract: inject a fault through an armed
:class:`FaultPlan`, let the engine's recovery layer (frame resend, whole-
transfer retry, buddy failover, DR task re-execution, mover restart, DFS
read-repair) absorb it, and assert **both** that the result is bit-identical
to a failure-free run **and** that the recovery left its audit trail — a
``fault.recovered`` span and the matching counter (``transfer_retries``,
``failovers``, ``tasks_reexecuted``, ``mover_restarts``,
``dfs_read_repairs``).

Everything here is deterministic for a fixed seed (CI runs the module under
``REPROLINT_LOCK_CHECK=1`` with several seeds, plus a rotating one passed in
through ``REPRO_FAULT_SEED``).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.deploy import deploy_model
from repro.algorithms import hpdglm
from repro.errors import (
    ExecutionError,
    NodeDownError,
    SessionError,
    TransferError,
)
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    spans_named,
)
from repro.obs.metrics import MetricsRegistry
from repro.dr import start_session
from repro.transfer import db2darray
from repro.vertica import (
    HashSegmentation,
    RoundRobinSegmentation,
    TransformFunction,
    VerticaCluster,
)
from repro.vertica.pipeline import BatchQueue
from repro.workloads import make_regression
from tests.conftest import OnDisk

# The rotating CI seed: fixed default locally, overridden per CI run so the
# matrix keeps exploring new jitter/timing interleavings.  Failures print it.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "7"))


def make_safe_cluster(k_safety: int = 1, rows: int = 1200, seed: int = 60):
    """A 3-node cluster with a hash-segmented ``t(k, v)``; k_safety=1."""
    cluster = VerticaCluster(node_count=3)
    rng = np.random.default_rng(seed)
    columns = {
        "k": rng.integers(0, 10**6, rows),
        "v": rng.normal(size=rows),
    }
    cluster.create_table_like("t", columns, HashSegmentation("k"),
                              k_safety=k_safety)
    cluster.bulk_load("t", columns)
    return cluster, columns


def transfer(cluster, session, retry=None):
    """One small-framed VFT load (many frames per node => mid-stream kills)."""
    return db2darray(cluster, "t", ["v"], session, chunk_rows=64, retry=retry)


def failure_free_baseline(seed: int = 60) -> np.ndarray:
    cluster, _ = make_safe_cluster(seed=seed)
    with start_session(node_count=3, instances_per_node=1) as session:
        return transfer(cluster, session).collect()


def mechanisms(*tracers) -> set:
    """Recovery mechanisms recorded across the given tracers.

    Recovery spans nest under whatever engine span was ambient (a query on
    the cluster tracer, a ``vft.transfer`` on the session tracer), so
    scenario assertions search every tree the scenario touched.
    """
    return {
        span.attributes.get("mechanism")
        for tracer in tracers
        for span in spans_named(tracer, "fault.recovered")
    }


# ---------------------------------------------------------------------------
# VFT: node crash, stall/timeout, torn frame, double failure
# ---------------------------------------------------------------------------

class TestVftFaults:
    def test_node_crash_mid_stream_is_bit_identical(self):
        baseline = failure_free_baseline()
        cluster, _ = make_safe_cluster()
        # Kill node 1 as it puts its 3rd frame on the wire:
        # the in-flight attempt dies, the whole-transfer retry re-reads
        # node 1's segment from its buddy and resends only unacked frames.
        plan = FaultPlan.single(
            "vft.send_chunk", FaultKind.NODE_CRASH,
            match={"node": 1}, after=2, seed=FAULT_SEED,
        )
        cluster.install_fault_plan(plan)
        with start_session(node_count=3, instances_per_node=1) as session:
            array = transfer(cluster, session,
                             retry=RetryPolicy(seed=FAULT_SEED))
            got = array.collect()
            assert np.array_equal(got, baseline), (
                f"retried transfer diverged (REPRO_FAULT_SEED={FAULT_SEED})"
            )
            assert cluster.nodes[1].is_down
            assert plan.fired("vft.send_chunk")
            assert session.metrics.counter("transfer_retries").value >= 1
            assert cluster.metrics.counter("failovers").value >= 1
            # Attempt 2's senders skip already-acked frames at the source,
            # before building them: every frame it frames goes on the wire.
            assert cluster.metrics.counter("vft_frames_deduped").value >= 1
            (retried,) = [span for span in spans_named(session.tracer,
                                                       "vft.transfer")
                          if span.attributes["attempt"] == 2]
            built = (retried.total("vft_blocks_forwarded")
                     + retried.total("vft_blocks_reencoded"))
            assert built == retried.total("vft_frames") > 0
            assert "transfer_retry" in mechanisms(session.tracer)
            assert "buddy_failover" in mechanisms(cluster.tracer,
                                                   session.tracer)
            assert plan.injected_spans()

    def test_stall_beyond_send_timeout_resends_and_dedups(self):
        baseline = failure_free_baseline()
        cluster, _ = make_safe_cluster()
        plan = FaultPlan.single(
            "vft.send_chunk", FaultKind.STALL,
            match={"node": 1}, stall_seconds=0.05,
            seed=FAULT_SEED,
        )
        cluster.install_fault_plan(plan)
        with start_session(node_count=3, instances_per_node=1) as session:
            got = transfer(
                cluster, session,
                retry=RetryPolicy(send_timeout=0.01, seed=FAULT_SEED),
            ).collect()
            assert np.array_equal(got, baseline)
            # The stalled frame *was* staged, so the in-place resend is
            # recognized as a duplicate by the receiver's ack cursor.
            assert cluster.metrics.counter("transfer_retries").value >= 1
            assert session.metrics.counter("vft_frames_deduped").value >= 1
            assert "frame_resend" in mechanisms(cluster.tracer,
                                                 session.tracer)

    def test_torn_frame_is_rejected_and_resent(self):
        baseline = failure_free_baseline()
        cluster, _ = make_safe_cluster()
        plan = FaultPlan.single(
            "vft.send_chunk", FaultKind.TORN_FRAME,
            match={"node": 2}, seed=FAULT_SEED,
        )
        cluster.install_fault_plan(plan)
        with start_session(node_count=3, instances_per_node=1) as session:
            got = transfer(cluster, session,
                           retry=RetryPolicy(seed=FAULT_SEED)).collect()
            assert np.array_equal(got, baseline)
            # Torn bytes never reach the staging buffer: the receiver's
            # structural validation rejects them before the ack advances.
            assert cluster.metrics.counter("transfer_retries").value >= 1
            assert "frame_resend" in mechanisms(cluster.tracer,
                                                 session.tracer)

    def test_torn_frame_never_pollutes_staging(self):
        cluster, _ = make_safe_cluster()
        with start_session(node_count=3, instances_per_node=1) as session:
            with pytest.raises(TransferError, match="torn frame"):
                from repro.transfer.streams import validate_frame
                validate_frame(b"\x01\x02\x03")
            session.metrics.counter("vft_frames_received").value  # no crash

    def test_node_and_buddy_both_down_fails_fast(self):
        cluster, _ = make_safe_cluster()
        cluster.fail_node(1)
        cluster.fail_node(2)  # node 2 hosts node 1's buddy
        with start_session(node_count=3, instances_per_node=1) as session:
            before = len(session.master.live_objects())
            started = time.perf_counter()
            with pytest.raises(ExecutionError, match="both down"):
                transfer(cluster, session, retry=RetryPolicy(seed=FAULT_SEED))
            elapsed = time.perf_counter() - started
            # Fail fast: NodeDownError is not retryable, so no backoff
            # rounds, no hang, and no partial darray was ever registered.
            assert elapsed < 10.0
            assert len(session.master.live_objects()) == before
            assert session.metrics.counter("transfer_retries").value == 0

    def test_node_down_error_is_execution_error(self):
        assert issubclass(NodeDownError, ExecutionError)
        assert issubclass(InjectedFault, Exception)


def make_forwarding_cluster():
    """``t(k, v)`` on 3 nodes, k_safety=1, as four loads of 100 rows per
    node: four equal row groups per node, which PARTITION BEST gives one
    instance each, so every frame of a default-hint transfer is a whole
    stored row group shipped as stored."""
    cluster = VerticaCluster(node_count=3)
    rng = np.random.default_rng(61)
    for load in range(4):
        columns = {"k": np.arange(300) + 300 * load, "v": rng.normal(size=300)}
        if not load:
            cluster.create_table_like("t", columns, RoundRobinSegmentation(),
                                      k_safety=1)
        cluster.bulk_load("t", columns)
    return cluster


def forwarded_transfer(cluster, session, retry=None):
    return db2darray(cluster, "t", ["v"], session, retry=retry)


class TestVftFaultsForwarded:
    """The fault matrix over frames that ship stored row-group blocks."""

    def baseline(self) -> np.ndarray:
        cluster = make_forwarding_cluster()
        with start_session(node_count=3, instances_per_node=1) as session:
            got = forwarded_transfer(cluster, session).collect()
        assert cluster.metrics.counter("vft_blocks_forwarded").value == 12
        assert cluster.metrics.counter("vft_blocks_reencoded").value == 0
        return got

    def test_node_crash_mid_stream_is_bit_identical(self):
        baseline = self.baseline()
        cluster = make_forwarding_cluster()
        plan = FaultPlan.single(
            "vft.send_chunk", FaultKind.NODE_CRASH,
            match={"node": 1}, after=2, seed=FAULT_SEED,
        )
        cluster.install_fault_plan(plan)
        with start_session(node_count=3, instances_per_node=1) as session:
            got = forwarded_transfer(
                cluster, session, retry=RetryPolicy(seed=FAULT_SEED)).collect()
            assert np.array_equal(got, baseline), (
                f"retried transfer diverged (REPRO_FAULT_SEED={FAULT_SEED})"
            )
            assert plan.fired("vft.send_chunk")
            assert cluster.metrics.counter("failovers").value >= 1
            assert cluster.metrics.counter("vft_frames_deduped").value >= 1
            # The buddy replica's row groups forward just as the primary's.
            assert cluster.metrics.counter("vft_blocks_forwarded").value > 12
            assert cluster.metrics.counter("vft_blocks_reencoded").value == 0

    def test_torn_frame_is_rejected_and_resent(self):
        baseline = self.baseline()
        cluster = make_forwarding_cluster()
        plan = FaultPlan.single(
            "vft.send_chunk", FaultKind.TORN_FRAME,
            match={"node": 2}, seed=FAULT_SEED,
        )
        cluster.install_fault_plan(plan)
        with start_session(node_count=3, instances_per_node=1) as session:
            got = forwarded_transfer(
                cluster, session, retry=RetryPolicy(seed=FAULT_SEED)).collect()
            assert np.array_equal(got, baseline)
            assert cluster.metrics.counter("transfer_retries").value >= 1
            assert cluster.metrics.counter("vft_blocks_forwarded").value == 12
            assert "frame_resend" in mechanisms(cluster.tracer,
                                                 session.tracer)


# ---------------------------------------------------------------------------
# ODBC: node crash mid-fetch
# ---------------------------------------------------------------------------

class TestOdbcFaults:
    def test_range_fetch_survives_node_crash_mid_stream(self):
        def load():
            cluster, columns = make_safe_cluster()
            cluster.bulk_load("t", columns)  # second row group per segment
            return cluster

        expected = load().connect().fetch_row_range("t", ["k", "v"], 0, 2400)
        cluster = load()
        # Node 1 dies after its first row group is already delivered.
        plan = FaultPlan.single("scan.stream", FaultKind.NODE_CRASH,
                                match={"node": 1}, after=1, seed=FAULT_SEED)
        cluster.install_fault_plan(plan)
        got = cluster.connect().fetch_row_range("t", ["k", "v"], 0, 2400)
        assert len(got["k"]) == 2400
        for name in ("k", "v"):
            assert np.array_equal(got[name], expected[name]), name
        assert plan.fired("scan.stream")
        assert cluster.nodes[1].is_down
        assert cluster.metrics.counter("failovers").value == 1
        assert "buddy_failover" in mechanisms(cluster.tracer)


# ---------------------------------------------------------------------------
# DR: worker death mid-foreach
# ---------------------------------------------------------------------------

class TestDrWorkerFaults:
    def test_worker_death_mid_foreach_reexecutes_on_survivor(self, session):
        d = session.darray(npartitions=3)
        plan = FaultPlan.single("dr.task", FaultKind.WORKER_DEATH,
                                match={"worker": 1}, seed=FAULT_SEED)
        session.install_fault_plan(plan)

        def fill(i: int) -> int:
            d.fill_partition(i, np.full((5, 2), float(i)))
            return i

        results = session.foreach(range(3), fill)
        assert results == [0, 1, 2]
        expected = np.concatenate([np.full((5, 2), float(i))
                                   for i in range(3)])
        assert np.array_equal(d.collect(), expected), (
            f"foreach output diverged (REPRO_FAULT_SEED={FAULT_SEED})"
        )
        # The dead worker's partition was reassigned and refilled elsewhere.
        assert session.workers[1].is_down
        assert d.worker_of(1) != 1
        assert session.metrics.counter("tasks_reexecuted").value >= 1
        assert session.metrics.counter("dr_worker_failures").value == 1
        assert "task_reexecution" in mechanisms(session.tracer)

    def test_all_workers_down_raises_cleanly(self, session):
        for worker in session.workers:
            worker.fail()
        d = session.darray(npartitions=3)
        with pytest.raises(SessionError, match="down"):
            session.foreach(range(3), lambda i: d.fill_partition(
                i, np.zeros((1, 1))))

    def test_worker_recover_comes_back_empty(self, session):
        session.workers[0].fail()
        assert session.workers[0].is_down
        session.workers[0].recover()
        assert not session.workers[0].is_down
        assert session.workers[0].stored_bytes == 0


# ---------------------------------------------------------------------------
# Tuple Mover: killed mid-moveout
# ---------------------------------------------------------------------------

class TestMoverFaults:
    @pytest.fixture
    def cluster_with_wos(self, data_dir):
        cluster = VerticaCluster(node_count=3, data_dir=data_dir)
        rng = np.random.default_rng(11)
        columns = {"k": rng.integers(0, 10**6, 300),
                   "v": rng.normal(size=300)}
        cluster.create_table_like("t", columns, HashSegmentation("k"))
        cluster.bulk_load("t", columns)
        for i in range(30):
            cluster.sql(f"INSERT INTO t VALUES ({2_000_000 + i}, {float(i)})")
        cluster.tuple_mover.stop()  # direct, deterministic passes only
        return cluster

    def test_killed_moveout_leaves_scans_bit_identical(self, cluster_with_wos):
        cluster = cluster_with_wos
        table = cluster.catalog.get_table("t")
        nonempty = sum(1 for seg in table.segments if seg.wos_rows)
        assert nonempty >= 2  # precondition: the kill lands mid-pass
        query = "SELECT k, v FROM t"
        before = cluster.sql(query).rows()

        plan = FaultPlan.single("txn.moveout", FaultKind.ERROR, after=1,
                                seed=FAULT_SEED)
        cluster.install_fault_plan(plan)
        with pytest.raises(InjectedFault):
            cluster.tuple_mover.run_moveout()
        # The killed pass flushed some segments and not others; every scan
        # still sees exactly the committed rows.
        assert cluster.sql(query).rows() == before
        assert sum(seg.wos_rows for seg in table.segments) > 0

        # A restarted pass completes the job and records the recovery.
        moved = cluster.tuple_mover.run_moveout()
        assert moved > 0
        assert sum(seg.wos_rows for seg in table.segments) == 0
        assert cluster.sql(query).rows() == before
        assert cluster.metrics.counter("mover_restarts").value == 1
        assert "mover_restart" in mechanisms(cluster.tracer)
        cluster.tuple_mover.stop()

    def test_background_mover_survives_injected_crash(self, cluster_with_wos):
        cluster = cluster_with_wos
        plan = FaultPlan.single("txn.moveout", FaultKind.ERROR,
                                seed=FAULT_SEED)
        cluster.install_fault_plan(plan)
        with pytest.raises(InjectedFault):
            cluster.tuple_mover.run_moveout()
        # The daemon path swallows the same ReproError and keeps cycling:
        # notify() restarts the thread, and direct passes still work.
        cluster.tuple_mover.notify()
        assert cluster.tuple_mover.run_moveout() > 0
        cluster.tuple_mover.stop()

    def test_killed_mergeout_counts_every_spliced_byte(self, data_dir):
        """A pass killed after splicing some segments still charges the
        bytes it rewrote for good: crashed + recovery pass == clean pass."""
        def purgeable_cluster(name):
            cluster = VerticaCluster(
                node_count=2, data_dir=data_dir and data_dir / name)
            for load in range(12):
                k = np.arange(load * 50, load * 50 + 50)
                columns = {"k": k, "v": k * 0.5}
                if load == 0:
                    cluster.create_table_like("t", columns, HashSegmentation("k"))
                cluster.bulk_load("t", columns)
            cluster.sql("DELETE FROM t WHERE k < 30")
            cluster.tuple_mover.stop()  # direct, deterministic passes only
            cluster.catalog.epochs.advance_ahm()
            return cluster

        clean = purgeable_cluster("clean")
        clean.tuple_mover.run_mergeout()
        clean_bytes = clean.metrics.counter("mergeout_bytes_rewritten").value
        assert clean_bytes > 0

        crashed = purgeable_cluster("crashed")
        rewritten = crashed.metrics.counter("mergeout_bytes_rewritten")
        crashed.install_fault_plan(FaultPlan.single(
            "txn.mergeout", FaultKind.ERROR, after=1, seed=FAULT_SEED))
        with pytest.raises(InjectedFault):
            crashed.tuple_mover.run_mergeout()
        assert 0 < rewritten.value < clean_bytes  # the first splice landed
        crashed.clear_fault_plan()
        crashed.tuple_mover.run_mergeout()
        assert rewritten.value == clean_bytes
        assert crashed.sql("SELECT k, v FROM t").rows() \
            == clean.sql("SELECT k, v FROM t").rows()


class TestMoverFaultsOnDisk(OnDisk, TestMoverFaults):
    pass


# ---------------------------------------------------------------------------
# DFS: replica loss healed by read-repair during deploy/predict
# ---------------------------------------------------------------------------

class TestDfsFaults:
    def test_replica_loss_heals_during_predict(self, session):
        rng = np.random.default_rng(21)
        n = 300
        columns = {"k": rng.integers(0, 10_000, n)}
        for j in range(3):
            columns[f"c{j}"] = rng.normal(size=n)
        cluster = VerticaCluster(node_count=3)
        cluster.create_table_like("scores", columns, HashSegmentation("k"))
        cluster.bulk_load("scores", columns)

        data = make_regression(300, 3, seed=8)
        x = session.darray(npartitions=3)
        x.fill_from(data.features)
        y = session.darray(
            npartitions=3,
            worker_assignment=[x.worker_of(i) for i in range(3)],
        )
        bounds = np.linspace(0, 300, 4).astype(int)
        for i in range(3):
            y.fill_partition(i, data.responses[bounds[i]:bounds[i + 1]]
                             .reshape(-1, 1))
        model = hpdglm(y, x)
        record = deploy_model(cluster, model, "reg")

        # Lose one replica of the model blob on the first (uncached) fetch;
        # the read falls over to the intact copy and repairs the lost one.
        plan = FaultPlan.single("dfs.read", FaultKind.BLOB_LOSS,
                                match={"path": record.dfs_path},
                                seed=FAULT_SEED)
        cluster.install_fault_plan(plan)
        result = cluster.sql(
            "SELECT glmPredict(c0, c1, c2 USING PARAMETERS model='reg') "
            "OVER (PARTITION BEST) FROM scores"
        )
        table = cluster.gather_table("scores", ["c0", "c1", "c2"])
        local = model.predict(np.column_stack(
            [table["c0"], table["c1"], table["c2"]]))
        assert np.allclose(np.sort(result.column("prediction")),
                           np.sort(local))
        assert plan.fired("dfs.read")
        assert cluster.metrics.counter("dfs_read_repairs").value >= 1
        assert "read_repair" in mechanisms(cluster.tracer)
        # The blob is fully re-replicated: every copy is physically back.
        info = cluster.dfs.stat(record.dfs_path)
        assert cluster.dfs.total_bytes() == info.size * cluster.dfs.replication

    def test_lose_replica_then_direct_read_repairs(self):
        cluster = VerticaCluster(node_count=3)
        payload = b"model-bytes" * 100
        info = cluster.dfs.write("/models/m1", payload)
        lost = cluster.dfs.lose_replica("/models/m1")
        assert lost in info.replica_nodes
        assert cluster.dfs.read("/models/m1") == payload
        assert cluster.metrics.counter("dfs_read_repairs").value == 1
        assert cluster.dfs.total_bytes() == len(payload) * cluster.dfs.replication

    def test_read_of_intact_local_copy_still_heals_lost_replica(self):
        """Whichever copy a reader prefers, one read restores a lost one —
        concurrent prediction instances race to fetch a model first."""
        cluster = VerticaCluster(node_count=3)
        payload = b"model-bytes" * 100
        info = cluster.dfs.write("/models/m3", payload)
        lost, intact = info.replica_nodes
        assert cluster.dfs.lose_replica("/models/m3", node=lost) == lost
        assert cluster.dfs.read("/models/m3", from_node=intact) == payload
        assert cluster.metrics.counter("dfs_read_repairs").value == 1
        assert cluster.dfs.total_bytes() == len(payload) * cluster.dfs.replication

    def test_replica_down_recruits_fresh_node(self):
        cluster = VerticaCluster(node_count=3)
        payload = b"x" * 1000
        info = cluster.dfs.write("/models/m2", payload)
        cluster.dfs.fail_node(info.replica_nodes[0])
        assert cluster.dfs.read("/models/m2") == payload
        healed = cluster.dfs.stat("/models/m2")
        live_holders = [n for n in healed.replica_nodes
                        if n != info.replica_nodes[0]]
        assert len(live_holders) >= cluster.dfs.replication


# ---------------------------------------------------------------------------
# UDTF fan-out: an instance fails mid-query
# ---------------------------------------------------------------------------

class _Twice(TransformFunction):
    name = "twice"

    def process(self, ctx, args, params):
        return {"v": np.asarray(args["v"], dtype=np.float64) * 2.0}


class TestUdtfFaults:
    @pytest.mark.parametrize("partition", ["NODES", "BEST", "BY k"])
    def test_instance_fault_fails_statement_and_leaves_nothing_behind(
            self, partition):
        cluster, columns = make_safe_cluster(k_safety=0)
        cluster.bulk_load("t", columns)  # a second row group per segment
        cluster.register_udtf(_Twice())
        query = f"SELECT twice(v) OVER (PARTITION {partition}) FROM t"
        threads = set(threading.enumerate())
        plan = FaultPlan.single("udtf.instance", FaultKind.ERROR,
                                match={"instance": 1}, seed=FAULT_SEED)
        cluster.install_fault_plan(plan)
        with pytest.raises(InjectedFault):
            cluster.sql(query)
        assert plan.fired("udtf.instance")
        assert cluster.metrics.gauge("pipeline_inflight_batches").now == 0
        assert cluster.metrics.gauge("pipeline_inflight_bytes").now == 0
        # No thread the statement started outlives it (threads left by
        # earlier tests may exit meanwhile, so compare sets, not counts).
        assert set(threading.enumerate()) <= threads
        # The plan's one shot is spent: the same cluster answers exactly.
        result = cluster.sql(query)
        expected = np.sort(np.concatenate([columns["v"]] * 2) * 2.0)
        assert np.array_equal(np.sort(result.column("v")), expected)


# ---------------------------------------------------------------------------
# pipeline stall detection
# ---------------------------------------------------------------------------

class TestPipelineStalls:
    def test_producer_stall_raises_instead_of_hanging(self):
        queue = BatchQueue(maxdepth=1, metrics=MetricsRegistry(),
                           stall_timeout=0.05)
        queue.put({"v": np.ones(4)})
        with pytest.raises(ExecutionError, match="pipeline stalled: producer"):
            queue.put({"v": np.ones(4)})

    def test_consumer_stall_raises_instead_of_hanging(self):
        queue = BatchQueue(maxdepth=1, metrics=MetricsRegistry(),
                           stall_timeout=0.05)
        with pytest.raises(ExecutionError, match="pipeline stalled: consumer"):
            next(iter(queue))


# ---------------------------------------------------------------------------
# harness determinism
# ---------------------------------------------------------------------------

class TestHarnessDeterminism:
    def test_plan_fires_on_exact_visit(self):
        plan = FaultPlan.single("x.op", FaultKind.ERROR, after=2,
                                seed=FAULT_SEED)
        assert plan.perturb("x.op") is None
        assert plan.perturb("x.op") is None
        with pytest.raises(InjectedFault):
            plan.perturb("x.op")
        assert plan.perturb("x.op") is None  # times=1: window closed
        assert [e.visit for e in plan.fired()] == [3]
        assert plan.metrics.counter("faults_injected").value == 1

    def test_match_pins_context(self):
        plan = FaultPlan.single("x.op", FaultKind.ERROR,
                                match={"node": 1}, seed=FAULT_SEED)
        assert plan.perturb("x.op", node=0) is None
        with pytest.raises(InjectedFault):
            plan.perturb("x.op", node=1)

    def test_retry_delays_are_seed_deterministic(self):
        a = RetryPolicy(seed=FAULT_SEED)
        b = RetryPolicy(seed=FAULT_SEED)
        assert [a.delay_for(i) for i in (1, 2, 3)] == \
            [b.delay_for(i) for i in (1, 2, 3)]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="s", kind="bogus")
        with pytest.raises(ValueError):
            FaultSpec(site="s", kind=FaultKind.ERROR, times=0)

    def test_rotating_seed_scenario(self):
        """The CI rotating-seed entry point: a full crash/recover round.

        Runs the node-crash transfer under whatever ``REPRO_FAULT_SEED``
        the environment provides; the seed is embedded in every assertion
        message so a red run is reproducible locally.
        """
        baseline = failure_free_baseline(seed=FAULT_SEED % 1000)
        cluster, _ = make_safe_cluster(seed=FAULT_SEED % 1000)
        plan = FaultPlan.single(
            "vft.send_chunk", FaultKind.NODE_CRASH,
            match={"node": 0}, after=1, seed=FAULT_SEED,
        )
        cluster.install_fault_plan(plan)
        with start_session(node_count=3, instances_per_node=1) as session:
            got = transfer(cluster, session,
                           retry=RetryPolicy(seed=FAULT_SEED)).collect()
        assert np.array_equal(got, baseline), (
            f"rotating-seed scenario diverged (REPRO_FAULT_SEED={FAULT_SEED})"
        )
