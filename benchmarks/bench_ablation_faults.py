"""Ablation: the wall-clock cost of recovering from injected faults.

Measures a VFT load (a) failure-free, (b) with one node killed mid-stream
(whole-transfer retry + buddy failover + sender-side frame dedup), and
(c) with a stalled frame forcing an in-place resend — quantifying what the
recovery machinery documented in ``docs/fault_tolerance.md`` costs relative
to the healthy path it protects.
"""

import numpy as np
import pytest

from repro.dr import start_session
from repro.faults import FaultKind, FaultPlan, RetryPolicy
from repro.transfer import db2darray
from repro.vertica import HashSegmentation, VerticaCluster

ROWS = 40_000
FEATURES = 4
SEED = 7


def build():
    rng = np.random.default_rng(70)
    columns = {"k": rng.integers(0, 10**6, ROWS)}
    names = []
    for j in range(FEATURES):
        names.append(f"c{j}")
        columns[f"c{j}"] = rng.normal(size=ROWS)
    cluster = VerticaCluster(node_count=3)
    cluster.create_table_like("t", columns, HashSegmentation("k"),
                              k_safety=1)
    cluster.bulk_load("t", columns)
    return cluster, names


@pytest.mark.parametrize("scenario", ["healthy", "node_crash", "stall"])
def test_ablation_vft_recovery_overhead(benchmark, scenario):
    _, names = build()

    def plan_for(cluster):
        if scenario == "node_crash":
            return FaultPlan.single(
                "vft.send_chunk", FaultKind.NODE_CRASH,
                match={"node": 1}, after=2, seed=SEED)
        if scenario == "stall":
            return FaultPlan.single(
                "vft.send_chunk", FaultKind.STALL,
                match={"node": 1}, stall_seconds=0.02, seed=SEED)
        return None

    def run():
        # Each round gets a fresh cluster: crashes are one-way.
        cluster, _ = build()
        plan = plan_for(cluster)
        if plan is not None:
            cluster.install_fault_plan(plan)
        retry = (RetryPolicy(send_timeout=0.01, seed=SEED)
                 if scenario == "stall" else RetryPolicy(seed=SEED))
        with start_session(node_count=3, instances_per_node=1) as session:
            # Small frames => many frames per node, so mid-stream kills land.
            array = db2darray(cluster, "t", names, session,
                              chunk_rows=2048, retry=retry)
            collected = array.collect()
        return cluster, plan, collected

    cluster, plan, collected = benchmark.pedantic(run, rounds=2, iterations=1)
    assert collected.shape == (ROWS, FEATURES)
    if scenario == "healthy":
        assert cluster.metrics.counter("failovers").value == 0
    else:
        assert plan.fired("vft.send_chunk")
    if scenario == "node_crash":
        assert cluster.metrics.counter("failovers").value >= 1
        assert cluster.metrics.counter("vft_frames_deduped").value >= 1
    if scenario == "stall":
        assert cluster.metrics.counter("transfer_retries").value >= 1


def test_ablation_failfast_when_unrecoverable(benchmark):
    """The double-failure path must cost ~nothing: no retry rounds."""
    from repro.errors import ExecutionError

    def run():
        cluster, names = build()
        cluster.fail_node(1)
        cluster.fail_node(2)
        with start_session(node_count=3, instances_per_node=1) as session:
            with pytest.raises(ExecutionError, match="both down"):
                db2darray(cluster, "t", names, session,
                          retry=RetryPolicy(seed=SEED))
        return cluster

    benchmark.pedantic(run, rounds=2, iterations=1)
