"""The AQP subsystem: stored samples, the WITHIN rewriter, and maintenance.

Covers the ISSUE-9 acceptance matrix end to end: ``CREATE SAMPLE`` →
``WITHIN n% ERROR`` answered from the sample with a valid CLT interval,
transparent fallback to exact when the bound can't be met, and
correctness across trickle INSERTs (epoch-incremental fold), DELETEs
(frozen-rate rebuild), and mergeout history purges — with the fold/rebuild
parity pinned to the deterministic hash draw (identical row sets, value
error ≤ 1e-9).  Statistical validity is checked two ways: hypothesis
property tests over the estimator core, and a deterministic ≥50-seed
loop asserting realized CI coverage at (or above) the nominal confidence.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aqp.build import BASE_ROWID_COLUMN, build_sample, drop_sample
from repro.aqp.catalog import sample_dfs_path
from repro.aqp.estimator import (
    ht_estimate,
    inverse_normal_cdf,
    keep_mask,
    keep_mask_stratified,
    stratum_rates,
    z_value,
)
from repro.aqp.refresh import refresh_sample
from repro.errors import (
    CatalogError,
    PermissionDeniedError,
    SemanticError,
)
from repro.faults.plan import FaultKind, FaultPlan, InjectedFault
from repro.vertica.cluster import VerticaCluster
from repro.vertica.models import Privilege
from repro.vertica.segmentation import HashSegmentation
from repro.vertica.table import ROWID_COLUMN

aqp_settings = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_cluster(rows=4000, nodes=3, seed=0):
    rng = np.random.default_rng(seed)
    columns = {
        "k": rng.integers(0, 1000, rows),
        "x": rng.normal(100.0, 10.0, rows),
        "grp": rng.choice(np.asarray(["a", "b", "c"], dtype=object),
                          rows, p=[0.70, 0.25, 0.05]),
    }
    cluster = VerticaCluster(node_count=nodes)
    cluster.create_table_like("t", columns, HashSegmentation("k"))
    cluster.bulk_load("t", columns)
    return cluster


def span_names(cluster):
    """Every span name in the cluster's trace, roots and descendants."""
    out = []

    def walk(span):
        out.append(span.name)
        for child in span.children:
            walk(child)

    for root in cluster.tracer.roots():
        walk(root)
    return out


def sample_contents(cluster, name):
    """A sample table's rows keyed and ordered by originating base rowid."""
    table = cluster.catalog.get_table(name)
    cols = [s.name for s in table.user_schema]
    data = cluster.gather_table(name, cols)
    order = np.argsort(data[BASE_ROWID_COLUMN], kind="stable")
    return {c: data[c][order] for c in cols}


def assert_samples_identical(got, want):
    assert set(got) == set(want)
    for name in want:
        a, b = got[name], want[name]
        assert len(a) == len(b), f"column {name!r}: {len(a)} vs {len(b)} rows"
        if a.dtype.kind == "f":
            assert np.allclose(a, b, rtol=0.0, atol=1e-9), name
        else:
            assert np.array_equal(a, b), name


# -- estimator core -------------------------------------------------------


class TestEstimator:
    def test_keep_mask_rate_and_determinism(self):
        rowids = np.arange(50_000, dtype=np.int64)
        mask = keep_mask(rowids, seed=7, rate=0.1)
        assert np.array_equal(mask, keep_mask(rowids, seed=7, rate=0.1))
        assert abs(mask.mean() - 0.1) < 0.01
        # A different seed draws a genuinely different subset.
        assert not np.array_equal(mask, keep_mask(rowids, seed=8, rate=0.1))

    def test_full_rate_sample_is_exact(self):
        # rate 1.0 → every weight is 1 → the HT scale-up degenerates to the
        # exact aggregate with zero variance.
        y = np.asarray([3.0, 5.0, 7.0, 9.0])
        w = np.ones(4)
        for func, exact in (("COUNT", 4.0), ("SUM", 24.0), ("AVG", 6.0)):
            est = ht_estimate(func, y, w, 0.95)
            assert est.estimate == pytest.approx(exact)
            assert est.se == 0.0
            assert est.ci_low == est.ci_high == est.estimate

    def test_ht_count_matches_closed_form(self):
        w = np.full(10, 4.0)  # rate 25%, ten sampled rows
        est = ht_estimate("COUNT", None, w, 0.95)
        assert est.estimate == pytest.approx(40.0)
        assert est.se == pytest.approx(np.sqrt(10 * 4.0 * 3.0))

    def test_z_value_matches_known_quantiles(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_value(0.99) == pytest.approx(2.575829, abs=1e-5)
        assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            z_value(1.5)
        with pytest.raises(ValueError):
            inverse_normal_cdf(0.0)
        with pytest.raises(ValueError):
            ht_estimate("MEDIAN", None, np.ones(3), 0.95)

    def test_stratum_rates_boost_rare_strata(self):
        rates = stratum_rates({"big": 100_000, "rare": 50}, rate=0.01,
                              min_rows=100)
        assert rates["big"] == pytest.approx(0.01)
        assert rates["rare"] == 1.0  # boosted past the cap

    def test_stratified_mask_uses_per_stratum_rates(self):
        rowids = np.arange(20_000, dtype=np.int64)
        strata = np.asarray(["a", "b"] * 10_000, dtype=object)
        mask = keep_mask_stratified(rowids, strata, seed=3,
                                    rates={"a": 0.02, "b": 0.5},
                                    default_rate=0.02)
        a, b = mask[strata == "a"], mask[strata == "b"]
        assert abs(a.mean() - 0.02) < 0.01
        assert abs(b.mean() - 0.5) < 0.02


# -- property tests (hypothesis) ------------------------------------------


class TestProperties:
    @aqp_settings
    @given(st.integers(0, 2**62), st.floats(0.01, 1.0))
    def test_membership_is_a_pure_function_of_rowid(self, seed, rate):
        # The identity the whole refresh design rests on: drawing a prefix
        # and a suffix separately (incremental fold) selects exactly the
        # rows one full draw (rebuild) would.
        rowids = np.arange(2_000, dtype=np.int64)
        full = keep_mask(rowids, seed, rate)
        split = np.concatenate([keep_mask(rowids[:1_200], seed, rate),
                                keep_mask(rowids[1_200:], seed, rate)])
        assert np.array_equal(full, split)
        assert np.array_equal(full, keep_mask(rowids, seed, rate))

    @aqp_settings
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["COUNT", "SUM", "AVG"]),
           st.floats(0.5, 0.999))
    def test_ci_brackets_the_estimate(self, seed, func, confidence):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(1.0, 20.0, 200)
        values = rng.normal(10.0, 3.0, 200)
        est = ht_estimate(func, values, weights, confidence)
        assert est.ci_low <= est.estimate <= est.ci_high
        assert est.half_width >= 0.0
        assert np.isfinite(est.estimate)

    def test_ci_coverage_meets_nominal_rate(self):
        # Deterministic many-seed coverage check: over 60 independent draws
        # the 95% interval must contain the true total at ≥ the nominal
        # rate (CLT intervals at ~500 sampled rows are effectively exact).
        rng = np.random.default_rng(123)
        y = rng.normal(50.0, 5.0, 5_000)
        truth = float(y.sum())
        rowids = np.arange(5_000, dtype=np.int64)
        rate, seeds = 0.1, 60
        covered = 0
        for seed in range(seeds):
            mask = keep_mask(rowids, seed, rate)
            weights = np.full(int(mask.sum()), 1.0 / rate)
            est = ht_estimate("SUM", y[mask], weights, 0.95)
            covered += est.ci_low <= truth <= est.ci_high
        assert covered / seeds >= 0.95


# -- SQL flow -------------------------------------------------------------


class TestSqlFlow:
    def test_create_sample_then_within_is_served(self):
        cluster = make_cluster()
        status = cluster.sql(
            "CREATE SAMPLE s1 ON t UNIFORM RATE 20% SEED 42").scalar()
        assert status.startswith("CREATE SAMPLE")
        record = cluster.aqp.get("s1")
        assert record.kind == "uniform" and record.rate == pytest.approx(0.2)
        assert cluster.dfs.exists(sample_dfs_path("s1"))

        exact = cluster.sql("SELECT AVG(x) FROM t").scalar()
        result = cluster.sql("SELECT AVG(x) FROM t WITHIN 2% ERROR")
        assert list(result.column_names) == [
            "estimate", "ci_low", "ci_high", "sample_fraction"]
        est = result.column("estimate")[0]
        assert result.column("ci_low")[0] <= est <= result.column("ci_high")[0]
        assert result.column("ci_low")[0] <= exact <= result.column("ci_high")[0]
        assert 0.0 < result.column("sample_fraction")[0] < 1.0
        # The realized half-width honors the requested relative bound.
        assert (result.column("ci_high")[0] - est) <= 0.02 * abs(est)
        assert cluster.metrics.counter("aqp_rewrites").value == 1
        assert cluster.metrics.counter("samples_built").value == 1
        assert "aqp.build" in span_names(cluster)
        assert "aqp.rewrite" in span_names(cluster)

    def test_count_and_sum_and_where_predicates(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 25% SEED 1")
        count = cluster.sql("SELECT COUNT(*) FROM t WITHIN 5% ERROR")
        assert count.column("estimate")[0] == pytest.approx(4000, rel=0.05)
        total = cluster.sql("SELECT SUM(x) FROM t WITHIN 5% ERROR")
        exact = cluster.sql("SELECT SUM(x) FROM t").scalar()
        assert total.column("ci_low")[0] <= exact <= total.column("ci_high")[0]
        filtered = cluster.sql(
            "SELECT SUM(x) FROM t WHERE k < 500 WITHIN 10% ERROR")
        exact_f = cluster.sql("SELECT SUM(x) FROM t WHERE k < 500").scalar()
        assert (filtered.column("ci_low")[0] <= exact_f
                <= filtered.column("ci_high")[0])

    def test_fallback_without_a_sample_and_under_tight_bounds(self):
        cluster = make_cluster()
        # No sample at all: exact answer in degenerate-CI clothing.
        r = cluster.sql("SELECT AVG(x) FROM t WITHIN 5% ERROR")
        exact = cluster.sql("SELECT AVG(x) FROM t").scalar()
        assert r.column("estimate")[0] == pytest.approx(exact)
        assert r.column("ci_low")[0] == r.column("ci_high")[0]
        assert r.column("sample_fraction")[0] == 1.0
        assert cluster.metrics.counter("aqp_fallbacks").value == 1
        # A bound no 2% sample can meet: transparent exact fallback again.
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 2%")
        tight = cluster.sql(
            "SELECT AVG(x) FROM t WITHIN 0.01% ERROR CONFIDENCE 99")
        assert tight.column("estimate")[0] == pytest.approx(exact)
        assert tight.column("sample_fraction")[0] == 1.0
        assert cluster.metrics.counter("aqp_fallbacks").value == 2

    def test_confidence_widens_the_interval(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 20% SEED 9")
        narrow = cluster.sql(
            "SELECT AVG(x) FROM t WITHIN 5% ERROR CONFIDENCE 80")
        wide = cluster.sql(
            "SELECT AVG(x) FROM t WITHIN 5% ERROR CONFIDENCE 99")
        hw = lambda r: r.column("ci_high")[0] - r.column("estimate")[0]  # noqa: E731
        assert hw(narrow) < hw(wide)
        assert narrow.column("estimate")[0] == wide.column("estimate")[0]

    def test_stratified_sample_oversamples_rare_strata(self):
        cluster = make_cluster(rows=20_000)
        cluster.sql("CREATE SAMPLE sg ON t STRATIFIED BY grp RATE 2% SEED 7")
        record = cluster.aqp.get("sg")
        assert record.kind == "stratified"
        # The rare stratum's rate is boosted above the nominal 2%.
        assert record.strata_rates["c"] > record.strata_rates["a"]
        exact = cluster.sql("SELECT AVG(x) FROM t WHERE grp = 'c'").scalar()
        r = cluster.sql(
            "SELECT AVG(x) FROM t WHERE grp = 'c' WITHIN 5% ERROR")
        assert r.column("sample_fraction")[0] < 1.0
        assert r.column("ci_low")[0] <= exact <= r.column("ci_high")[0]

    def test_show_and_drop_samples(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 10%")
        rows = cluster.sql("SHOW SAMPLES")
        assert rows.column("sample")[0] == "s1"
        assert rows.column("base_table")[0] == "t"
        assert rows.column("kind")[0] == "uniform"
        assert rows.column("base_rows")[0] == 4000
        assert rows.column("owner")[0] == "dbadmin"
        cluster.sql("DROP SAMPLE s1")
        assert not cluster.aqp.exists("s1")
        assert not cluster.catalog.has_table("s1")
        assert not cluster.dfs.exists(sample_dfs_path("s1"))
        assert len(cluster.sql("SHOW SAMPLES")) == 0
        # IF EXISTS swallows the absence; the bare form does not.
        cluster.sql("DROP SAMPLE IF EXISTS s1")
        with pytest.raises(CatalogError):
            drop_sample(cluster, "s1")

    def test_name_collisions_and_bad_rates_are_rejected(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 10%")
        with pytest.raises(CatalogError):
            build_sample(cluster, "s1", "t", 0.1)
        with pytest.raises(CatalogError):
            build_sample(cluster, "t", "t", 0.1)  # shadows a table name
        with pytest.raises(ValueError):
            build_sample(cluster, "s2", "t", 1.5)

    def test_analyzer_rejects_malformed_within(self):
        cluster = make_cluster()
        with pytest.raises(SemanticError):  # SA213: forgot the percent sign
            cluster.sql("SELECT AVG(x) FROM t WITHIN 2 ERROR")
        with pytest.raises(SemanticError):  # SA312: not a plain aggregate
            cluster.sql("SELECT MIN(x) FROM t WITHIN 5% ERROR")
        with pytest.raises(SemanticError):  # SA212: rate out of range
            cluster.sql("CREATE SAMPLE sx ON t UNIFORM RATE 150%")
        with pytest.raises(SemanticError):  # SA110: unknown sample
            cluster.sql("DROP SAMPLE ghost")

    def test_sample_privileges(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 20% SEED 11")
        # No USAGE: alice's WITHIN query silently falls back to exact.
        r = cluster.sql("SELECT AVG(x) FROM t WITHIN 2% ERROR", user="alice")
        assert r.column("sample_fraction")[0] == 1.0
        cluster.aqp.grant("s1", "alice", Privilege.USAGE,
                          granting_user="dbadmin")
        r = cluster.sql("SELECT AVG(x) FROM t WITHIN 2% ERROR", user="alice")
        assert r.column("sample_fraction")[0] < 1.0
        # USAGE does not confer MODIFY: dropping still fails...
        with pytest.raises(PermissionDeniedError):
            cluster.sql("DROP SAMPLE s1", user="alice")
        with pytest.raises(PermissionDeniedError):
            refresh_sample(cluster, "s1", user="alice")
        # ...until the owner grants it.
        cluster.aqp.grant("s1", "alice", Privilege.MODIFY,
                          granting_user="dbadmin")
        cluster.sql("DROP SAMPLE s1", user="alice")
        assert not cluster.aqp.exists("s1")


# -- epoch-incremental maintenance ----------------------------------------


def wos_trickle(cluster, n, start_k=3000, grp="c"):
    """Trickle ``n`` rows into t's WOS without waking the Tuple Mover
    (each batch row set commits one epoch, like a SQL INSERT would), so
    tests that need a deterministic staleness gap can stop the mover
    first and keep it stopped."""
    table = cluster.catalog.get_table("t")
    for i in range(n):
        table.insert({
            "k": np.asarray([start_k + i]),
            "x": np.asarray([80.0 + i]),
            "grp": np.asarray([grp], dtype=object),
        }, direct=False)


class TestMaintenance:
    def trickle(self, cluster, n, start_k=2000):
        for i in range(n):
            cluster.sql(
                f"INSERT INTO t VALUES ({start_k + i}, {90.0 + i}, 'b')")

    def test_incremental_fold_matches_from_scratch_rebuild(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 30% SEED 42")
        self.trickle(cluster, 40)
        result = refresh_sample(cluster, "s1")
        # The background mover may have folded part of the trickle already
        # (its cycle calls run_sample_refresh); the explicit refresh closes
        # whatever gap remains and the end state must still match a rebuild.
        assert result.strategy in ("incremental", "noop")
        # A from-scratch build at the same snapshot/seed/rate must select
        # the exact same rows with the exact same values.
        cluster.sql("CREATE SAMPLE s2 ON t UNIFORM RATE 30% SEED 42")
        assert_samples_identical(sample_contents(cluster, "s1"),
                                 sample_contents(cluster, "s2"))
        r1, r2 = cluster.aqp.get("s1"), cluster.aqp.get("s2")
        assert r1.sample_rows == r2.sample_rows
        assert r1.base_rows == r2.base_rows == 4040
        assert cluster.metrics.counter("sample_rows_folded").value >= 1

    def test_refresh_without_mutations_is_a_noop(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 30% SEED 42")
        # The build's own sample-table insert advances the global epoch
        # clock, so the first refresh legitimately folds a zero-row delta;
        # once absorbed, further refreshes are true noops.
        first = refresh_sample(cluster, "s1")
        assert first.rows_folded == 0
        result = refresh_sample(cluster, "s1")
        assert result.strategy == "noop"
        assert result.rows_folded == 0

    def test_delete_forces_rebuild_with_parity(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 30% SEED 42")
        cluster.sql("DELETE FROM t WHERE k < 100")
        result = refresh_sample(cluster, "s1")
        assert result.strategy == "rebuild"
        assert cluster.metrics.counter("sample_rebuilds").value == 1
        cluster.sql("CREATE SAMPLE s2 ON t UNIFORM RATE 30% SEED 42")
        assert_samples_identical(sample_contents(cluster, "s1"),
                                 sample_contents(cluster, "s2"))
        # The rebuilt sample answers for the post-delete table.
        exact = cluster.sql("SELECT AVG(x) FROM t").scalar()
        r = cluster.sql("SELECT AVG(x) FROM t WITHIN 2% ERROR")
        assert r.column("ci_low")[0] <= exact <= r.column("ci_high")[0]

    def test_stratified_rebuild_keeps_frozen_rates(self):
        cluster = make_cluster(rows=20_000)
        cluster.sql("CREATE SAMPLE sg ON t STRATIFIED BY grp RATE 2% SEED 5")
        frozen = dict(cluster.aqp.get("sg").strata_rates)
        cluster.sql("DELETE FROM t WHERE k < 100")
        result = refresh_sample(cluster, "sg")
        assert result.strategy == "rebuild"
        record = cluster.aqp.get("sg")
        assert record.strata_rates == frozen  # never recomputed
        # Independent check: the rebuilt contents are exactly the surviving
        # base rows that pass the frozen-rate deterministic draw.
        data = cluster.gather_table("t", ["k", "x", "grp", ROWID_COLUMN])
        mask = keep_mask_stratified(data[ROWID_COLUMN], data["grp"],
                                    record.seed, frozen, record.rate)
        order = np.argsort(data[ROWID_COLUMN][mask], kind="stable")
        expected = {
            "k": data["k"][mask][order],
            "x": data["x"][mask][order],
            "grp": data["grp"][mask][order],
            BASE_ROWID_COLUMN: data[ROWID_COLUMN][mask][order].astype(np.int64),
        }
        assert_samples_identical(sample_contents(cluster, "sg"), expected)

    def test_purged_history_forces_rebuild(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 30% SEED 42")
        # A background fold must not catch the sample up first: keep the
        # mover stopped and trickle without waking it.
        cluster.tuple_mover.stop()
        wos_trickle(cluster, 10, start_k=2000, grp="b")
        # Advancing the AHM past the sample's epoch invalidates the delta
        # window even though the mutations were pure inserts.
        cluster.advance_ahm()
        cluster.tuple_mover.run_mergeout()
        result = refresh_sample(cluster, "s1")
        assert result.strategy == "rebuild"
        cluster.sql("CREATE SAMPLE s2 ON t UNIFORM RATE 30% SEED 42")
        assert_samples_identical(sample_contents(cluster, "s1"),
                                 sample_contents(cluster, "s2"))

    def test_mover_folds_but_never_rebuilds(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 50% SEED 3")
        epoch_before = cluster.aqp.get("s1").commit_epoch
        self.trickle(cluster, 30)
        cluster.tuple_mover.run_sample_refresh()
        # Folded by this call or by a background cycle it raced with —
        # either way the sample is current and rows were folded.
        assert cluster.aqp.get("s1").commit_epoch > epoch_before
        assert cluster.metrics.counter("sample_rows_folded").value >= 1
        # Deletes in the window: the background pass skips (a rebuild would
        # drop the backing table under concurrent readers).
        cluster.sql("DELETE FROM t WHERE k < 100")
        # Let a background fold the DELETE raced with finish (it may restamp
        # the sample at a pre-DELETE snapshot) before reading the stamp.
        cluster.tuple_mover.stop()
        epoch_mid = cluster.aqp.get("s1").commit_epoch
        assert cluster.tuple_mover.run_sample_refresh() == 0
        assert cluster.aqp.get("s1").commit_epoch == epoch_mid
        # An explicit refresh performs the rebuild the mover declined.
        assert refresh_sample(cluster, "s1").strategy == "rebuild"

    def test_staleness_gauge_tracks_refresh_lag(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 30% SEED 42")
        cluster.tuple_mover.stop()
        wos_trickle(cluster, 5)
        result = refresh_sample(cluster, "s1")
        assert result.staleness_epochs >= 5
        assert (cluster.metrics.gauge("sample_staleness_epochs").now
                == result.staleness_epochs)
        refresh_sample(cluster, "s1")  # absorbs the fold's own commit epoch
        assert refresh_sample(cluster, "s1").strategy == "noop"
        assert cluster.metrics.gauge("sample_staleness_epochs").now == 0

    def test_refresh_spans_and_fold_after_moveout(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 30% SEED 42")
        # A background fold must not absorb the delta first: keep the mover
        # stopped and trickle without waking it.
        cluster.tuple_mover.stop()
        wos_trickle(cluster, 10, start_k=2000, grp="b")
        cluster.tuple_mover.run_moveout()  # deltas now live in ROS
        result = refresh_sample(cluster, "s1")
        assert result.strategy == "incremental"
        assert "aqp.refresh" in span_names(cluster)
        cluster.sql("CREATE SAMPLE s2 ON t UNIFORM RATE 30% SEED 42")
        assert_samples_identical(sample_contents(cluster, "s1"),
                                 sample_contents(cluster, "s2"))


# -- fault injection ------------------------------------------------------


class TestFaults:
    def test_crash_in_refresh_leaves_sample_stale_but_consistent(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 30% SEED 42")
        before = cluster.aqp.get("s1")
        contents_before = sample_contents(cluster, "s1")
        cluster.tuple_mover.stop()
        wos_trickle(cluster, 20)
        plan = FaultPlan.single("aqp.refresh", FaultKind.ERROR)
        cluster.install_fault_plan(plan)
        with pytest.raises(InjectedFault):
            refresh_sample(cluster, "s1")
        assert plan.fired("aqp.refresh")
        # The site sits before any mutation: record and rows are untouched.
        after = cluster.aqp.get("s1")
        assert after.commit_epoch == before.commit_epoch
        assert after.sample_rows == before.sample_rows
        assert_samples_identical(sample_contents(cluster, "s1"),
                                 contents_before)
        # The retried pass re-folds the same window to the same answer.
        cluster.clear_fault_plan()
        assert refresh_sample(cluster, "s1").strategy == "incremental"
        cluster.sql("CREATE SAMPLE s2 ON t UNIFORM RATE 30% SEED 42")
        assert_samples_identical(sample_contents(cluster, "s1"),
                                 sample_contents(cluster, "s2"))

    def test_mover_cycle_survives_injected_refresh_crash(self):
        cluster = make_cluster()
        cluster.sql("CREATE SAMPLE s1 ON t UNIFORM RATE 50% SEED 3")
        cluster.tuple_mover.stop()
        wos_trickle(cluster, 1, start_k=5000, grp="a")
        cluster.install_fault_plan(
            FaultPlan.single("aqp.refresh", FaultKind.ERROR))
        with pytest.raises(InjectedFault):
            cluster.tuple_mover.run_sample_refresh()
        cluster.clear_fault_plan()
        # The next pass completes the fold the crashed one never started.
        cluster.tuple_mover.run_sample_refresh()
        cluster.sql("CREATE SAMPLE s2 ON t UNIFORM RATE 50% SEED 3")
        assert_samples_identical(sample_contents(cluster, "s1"),
                                 sample_contents(cluster, "s2"))
