"""Tests for epoch-incremental model refresh (``REFRESH MODEL``).

The acceptance-critical property: after trickle inserts, an incremental
refresh (delta fold over sufficient statistics) matches a full refit on the
same snapshot within 1e-9.  Also covers the guards that force the full
refit (deletes in the window, unseen classes, non-additive families), the
noop/restamp paths, privilege checks, the staleness gauge, and the SQL
surface end to end.
"""

import numpy as np
import pytest

from repro.algorithms import LocalArray, hpdglm, hpdkmeans, hpdnaivebayes
from repro.deploy import deploy_model, load_model, refresh_model
from repro.errors import (
    CatalogError,
    PermissionDeniedError,
    SqlSyntaxError,
)
from repro.storage import ColumnSchema, SqlType

GLM_TRAINING = {
    "table": "obs",
    "features": ["x1", "x2"],
    "response": "y",
    "algorithm": "glm",
    "params": {"family": "gaussian"},
}


def make_obs(cluster, n=240, seed=1):
    """A 3-column regression table ``obs`` with n bulk-loaded rows."""
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = 0.5 + 1.5 * x1 - 2.0 * x2 + rng.normal(scale=0.1, size=n)
    cluster.create_table("obs", [
        ColumnSchema("x1", SqlType.FLOAT),
        ColumnSchema("x2", SqlType.FLOAT),
        ColumnSchema("y", SqlType.FLOAT),
    ])
    cluster.bulk_load("obs", {"x1": x1, "x2": x2, "y": y})
    return cluster.catalog.get_table("obs")


def fit_glm(cluster):
    """The reference full fit: hpdglm over everything visible right now,
    partitioned exactly as refresh's internal refit partitions."""
    cols = cluster.gather_table("obs", ["x1", "x2", "y"])
    nparts = max(1, cluster.node_count)
    features = LocalArray(np.column_stack([cols["x1"], cols["x2"]]), nparts)
    responses = LocalArray(np.asarray(cols["y"]).reshape(-1, 1), nparts)
    return hpdglm(responses, features, family="gaussian")


def deploy_glm(cluster, name="sales_model"):
    record = deploy_model(cluster, fit_glm(cluster), name,
                          training=dict(GLM_TRAINING))
    return record


def trickle(table, rows):
    """One INSERT (one commit epoch) of [x1, x2, y] rows."""
    table.insert_rows([[float(v) for v in row] for row in rows])


class TestIncrementalGlmParity:
    def test_refresh_after_trickle_matches_full_refit(self, cluster):
        """The tentpole acceptance test: trickle inserts, then REFRESH MODEL
        == full refit at the same snapshot, within 1e-9."""
        table = make_obs(cluster)
        deploy_glm(cluster)
        rng = np.random.default_rng(9)
        for _ in range(3):  # three separate commit epochs of new rows
            batch = [
                [a, b, 0.5 + 1.5 * a - 2.0 * b + 0.1 * e]
                for a, b, e in rng.normal(size=(5, 3))
            ]
            trickle(table, batch)

        result = refresh_model(cluster, "sales_model")
        assert result.strategy == "incremental"
        assert result.rows_folded == 15
        assert result.staleness_epochs == 3

        refreshed = load_model(cluster, "sales_model")
        full = fit_glm(cluster)  # nothing committed since: same snapshot
        assert np.allclose(refreshed.coefficients, full.coefficients,
                           atol=1e-9)
        assert refreshed.deviance == pytest.approx(full.deviance, abs=1e-9)
        assert refreshed.null_deviance == pytest.approx(full.null_deviance,
                                                        abs=1e-9)
        assert np.allclose(refreshed.standard_errors, full.standard_errors,
                           atol=1e-9)
        assert refreshed.n_observations == 255

    def test_refresh_stamps_snapshot_and_second_refresh_noops(self, cluster):
        table = make_obs(cluster)
        deploy_glm(cluster)
        trickle(table, [[0.1, 0.2, 0.3]])
        snapshot_epoch = cluster.catalog.epochs.snapshot().epoch

        first = refresh_model(cluster, "sales_model")
        assert first.strategy == "incremental"
        assert first.record.commit_epoch == snapshot_epoch

        second = refresh_model(cluster, "sales_model")
        assert second.strategy == "noop"
        assert second.rows_folded == 0

    def test_staleness_gauge_tracks_epoch_lag(self, cluster):
        table = make_obs(cluster)
        deploy_glm(cluster)
        for _ in range(4):
            trickle(table, [[0.0, 0.0, 0.5]])
        result = refresh_model(cluster, "sales_model")
        assert result.staleness_epochs == 4
        assert cluster.metrics.gauge("model_staleness_epochs").now == 4.0
        # The redeploy inside the refresh commits one epoch of its own, so
        # the immediate follow-up sees lag 1; the peak remembers the worst.
        refresh_model(cluster, "sales_model")
        assert cluster.metrics.gauge("model_staleness_epochs").now == 1.0
        assert cluster.metrics.gauge("model_staleness_epochs").peak == 4.0

    def test_epoch_advance_without_table_rows_restamps(self, cluster):
        """Commits to *other* tables advance the global epoch; the refresh
        sees an empty delta, restamps, and reports noop."""
        make_obs(cluster)
        record = deploy_glm(cluster)
        cluster.create_table("unrelated", [ColumnSchema("v", SqlType.FLOAT)])
        cluster.catalog.get_table("unrelated").insert_rows([[1.0]])

        before = record.commit_epoch
        result = refresh_model(cluster, "sales_model")
        assert result.strategy == "noop"
        assert result.rows_folded == 0
        assert result.record.commit_epoch > before


class TestRefitFallbacks:
    def test_delete_in_window_forces_refit(self, cluster):
        """An insert delta cannot express removed prefix rows, so a DELETE
        inside the window falls back to the full refit — which must still
        match a from-scratch fit on the surviving rows."""
        table = make_obs(cluster)
        deploy_glm(cluster)
        trickle(table, [[0.3, -0.1, 1.1]])
        cluster.sql("DELETE FROM obs WHERE y > 1.5")

        result = refresh_model(cluster, "sales_model")
        assert result.strategy == "refit"
        refreshed = load_model(cluster, "sales_model")
        full = fit_glm(cluster)
        assert np.allclose(refreshed.coefficients, full.coefficients,
                           atol=1e-9)
        assert refreshed.n_observations == full.n_observations

    def test_non_gaussian_glm_refits(self, cluster):
        """Binomial GLMs carry no additive normal equations — IRLS weights
        depend on the coefficients — so the refresh refits."""
        rng = np.random.default_rng(3)
        n = 300
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-(2 * x1 - x2)))
                  ).astype(float)
        cluster.create_table("obs", [
            ColumnSchema("x1", SqlType.FLOAT),
            ColumnSchema("x2", SqlType.FLOAT),
            ColumnSchema("y", SqlType.FLOAT),
        ])
        cluster.bulk_load("obs", {"x1": x1, "x2": x2, "y": labels})
        features = LocalArray(np.column_stack([x1, x2]), 3)
        responses = LocalArray(labels.reshape(-1, 1), 3)
        model = hpdglm(responses, features, family="binomial")
        training = dict(GLM_TRAINING,
                        params={"family": "binomial"})
        deploy_model(cluster, model, "churn", training=training)

        cluster.catalog.get_table("obs").insert_rows([[0.5, 0.5, 1.0]])
        result = refresh_model(cluster, "churn")
        assert result.strategy == "refit"
        assert load_model(cluster, "churn").family == "binomial"

    def test_kmeans_has_no_additive_state_and_refits(self, cluster):
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.normal(loc=c, size=(60, 2)) for c in (-4, 0, 4)])
        cluster.create_table("obs", [
            ColumnSchema("x1", SqlType.FLOAT),
            ColumnSchema("x2", SqlType.FLOAT),
        ])
        cluster.bulk_load("obs", {"x1": pts[:, 0], "x2": pts[:, 1]})
        model = hpdkmeans(LocalArray(pts, 3), k=3, seed=0)
        deploy_model(cluster, model, "clusters", training={
            "table": "obs", "features": ["x1", "x2"], "response": None,
            "algorithm": "kmeans", "params": {"k": 3, "seed": 0},
        })

        cluster.catalog.get_table("obs").insert_rows([[4.2, 4.1]])
        result = refresh_model(cluster, "clusters")
        assert result.strategy == "refit"
        assert result.rows_folded == 181  # refit reports total rows seen
        assert load_model(cluster, "clusters").k == 3


def make_labeled(cluster, n=200, seed=7, n_classes=3):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n).astype(float)
    x1 = rng.normal(loc=labels, size=n)
    x2 = rng.normal(loc=-labels, size=n)
    cluster.create_table("obs", [
        ColumnSchema("x1", SqlType.FLOAT),
        ColumnSchema("x2", SqlType.FLOAT),
        ColumnSchema("y", SqlType.FLOAT),
    ])
    cluster.bulk_load("obs", {"x1": x1, "x2": x2, "y": labels})
    return cluster.catalog.get_table("obs")


def fit_nb(cluster):
    cols = cluster.gather_table("obs", ["x1", "x2", "y"])
    nparts = max(1, cluster.node_count)
    features = LocalArray(np.column_stack([cols["x1"], cols["x2"]]), nparts)
    responses = LocalArray(np.asarray(cols["y"]).reshape(-1, 1), nparts)
    return hpdnaivebayes(responses, features)


class TestIncrementalNaiveBayes:
    def deploy(self, cluster):
        return deploy_model(cluster, fit_nb(cluster), "classifier", training={
            "table": "obs", "features": ["x1", "x2"], "response": "y",
            "algorithm": "naivebayes", "params": {},
        })

    def test_trickle_refresh_matches_full_refit(self, cluster):
        table = make_labeled(cluster)
        self.deploy(cluster)
        trickle(table, [[0.9, -1.1, 1.0], [2.1, -2.0, 2.0], [0.1, 0.0, 0.0]])

        result = refresh_model(cluster, "classifier")
        assert result.strategy == "incremental"
        assert result.rows_folded == 3

        refreshed = load_model(cluster, "classifier")
        full = fit_nb(cluster)
        assert np.allclose(refreshed.means, full.means, atol=1e-9)
        assert np.allclose(refreshed.variances, full.variances, atol=1e-9)
        assert np.allclose(refreshed.class_log_priors, full.class_log_priors,
                           atol=1e-9)

    def test_unseen_class_in_delta_forces_refit(self, cluster):
        table = make_labeled(cluster, n_classes=3)
        self.deploy(cluster)
        trickle(table, [[5.0, -5.0, 3.0]])  # class 3 never trained

        result = refresh_model(cluster, "classifier")
        assert result.strategy == "refit"
        assert load_model(cluster, "classifier").n_classes == 4


class TestGuards:
    def test_model_without_provenance_is_not_refreshable(self, cluster):
        make_obs(cluster)
        deploy_model(cluster, fit_glm(cluster), "opaque")  # no training=
        with pytest.raises(CatalogError, match="provenance"):
            refresh_model(cluster, "opaque")

    def test_unknown_model_rejected(self, cluster):
        with pytest.raises(CatalogError):
            refresh_model(cluster, "ghost")

    def test_refresh_requires_modify_privilege(self, cluster):
        make_obs(cluster)
        deploy_glm(cluster)
        with pytest.raises(PermissionDeniedError):
            refresh_model(cluster, "sales_model", user="intruder")


class TestSqlSurface:
    def test_refresh_statement_reports_strategy(self, cluster):
        table = make_obs(cluster)
        deploy_glm(cluster)
        trickle(table, [[0.2, 0.1, 0.6]])
        status = cluster.sql("REFRESH MODEL sales_model").scalar()
        assert status.startswith("REFRESH MODEL") and \
            status.endswith("(incremental)")
        again = cluster.sql("REFRESH MODEL sales_model").scalar()
        assert again.endswith("(noop)")

    def test_refresh_unknown_model_fails_analysis(self, cluster):
        with pytest.raises(CatalogError, match="ghost"):
            cluster.sql("REFRESH MODEL ghost")

    def test_refresh_requires_the_model_keyword(self, cluster):
        with pytest.raises(SqlSyntaxError, match="MODEL"):
            cluster.sql("REFRESH TABLE obs")

    def test_refreshed_model_serves_predictions(self, cluster):
        """End to end: the refreshed blob is what the prediction UDTF loads."""
        table = make_obs(cluster)
        deploy_glm(cluster)
        trickle(table, [[1.0, -1.0, 4.0]])
        cluster.sql("REFRESH MODEL sales_model")
        rows = cluster.sql(
            "SELECT glmPredict(x1, x2 USING PARAMETERS model='sales_model') "
            "OVER (PARTITION BEST) FROM obs"
        )
        refreshed = load_model(cluster, "sales_model")
        cols = cluster.gather_table("obs", ["x1", "x2"])
        expected = refreshed.predict(np.column_stack([cols["x1"], cols["x2"]]))
        assert np.allclose(np.sort(rows.column("prediction")),
                           np.sort(expected))
