"""Ablation: incremental ``REFRESH MODEL`` vs full refit, by delta size.

The point of carrying additive sufficient statistics (docs/ml_architecture.md):
after a trickle of new rows, an incremental refresh scans only the delta
epochs (`VerticaCluster.gather_table(..., since_epoch=...)`) and re-solves a p×p system, so its cost follows
the *trickle*; the full refit re-reads every visible row, so its cost
follows the *table*.  The sweep holds the base table fixed and grows the
delta; the refit arm is forced by a delete inside the window (the guard
that makes an insert-only delta untrustworthy).
"""

import numpy as np
import pytest

from repro.algorithms import LocalArray, hpdglm
from repro.deploy import deploy_model, load_model, refresh_model
from repro.storage import ColumnSchema, SqlType
from repro.vertica import VerticaCluster

BASE_ROWS = 40_000
FEATURES = 4
COEFFICIENTS = np.array([1.5, -2.0, 0.7, 0.3])


def _columns(rows: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(rows, FEATURES))
    noise = rng.normal(scale=0.1, size=rows)
    cols = {f"f{j}": features[:, j] for j in range(FEATURES)}
    cols["y"] = 0.5 + features @ COEFFICIENTS + noise
    return cols


def _deployed_cluster(delta_rows: int) -> VerticaCluster:
    """A cluster with a deployed, provenance-carrying GLM that is exactly
    one commit epoch (of ``delta_rows`` rows) stale."""
    cluster = VerticaCluster(node_count=3)
    feature_names = [f"f{j}" for j in range(FEATURES)]
    cluster.create_table("obs", [
        ColumnSchema(name, SqlType.FLOAT) for name in feature_names + ["y"]
    ])
    base = _columns(BASE_ROWS, seed=61)
    cluster.bulk_load("obs", base)

    nparts = cluster.node_count
    model = hpdglm(
        LocalArray(base["y"], nparts),
        LocalArray(np.column_stack([base[n] for n in feature_names]), nparts),
        family="gaussian",
    )
    deploy_model(cluster, model, "line", training={
        "table": "obs", "features": feature_names, "response": "y",
        "algorithm": "glm", "params": {"family": "gaussian"},
    })
    delta = _columns(delta_rows, seed=62)
    cluster.catalog.get_table("obs").insert_rows(
        np.column_stack([delta[n] for n in feature_names + ["y"]]).tolist())
    return cluster


@pytest.mark.parametrize("delta_rows", [100, 2_000])
def test_ablation_incremental_refresh_by_delta(benchmark, delta_rows):
    cluster = _deployed_cluster(delta_rows)
    result = benchmark.pedantic(
        lambda: refresh_model(cluster, "line"), rounds=1, iterations=1)
    assert result.strategy == "incremental"
    assert result.rows_folded == delta_rows  # cost follows the trickle
    refreshed = load_model(cluster, "line")
    assert refreshed.n_observations == BASE_ROWS + delta_rows
    assert np.allclose(refreshed.coefficients[1:], COEFFICIENTS, atol=0.05)


@pytest.mark.parametrize("delta_rows", [100, 2_000])
def test_ablation_full_refit_by_delta(benchmark, delta_rows):
    cluster = _deployed_cluster(delta_rows)
    # A few deleted rows inside the window poison the insert-only delta,
    # forcing the fallback this arm measures.
    ys = cluster.gather_table("obs", ["y"])["y"]
    threshold = float(np.partition(ys, -3)[-3])
    deleted = int(cluster.sql(f"DELETE FROM obs WHERE y >= {threshold}").scalar())
    assert deleted >= 1
    result = benchmark.pedantic(
        lambda: refresh_model(cluster, "line"), rounds=1, iterations=1)
    assert result.strategy == "refit"
    # Cost follows the table: every surviving row is re-read.
    assert result.rows_folded == BASE_ROWS + delta_rows - deleted


def test_incremental_matches_refit_at_the_same_snapshot():
    """The ablation is only meaningful because both arms land on the same
    model: delta fold == full refit to float precision."""
    cluster = _deployed_cluster(500)
    refresh_model(cluster, "line")
    incremental = load_model(cluster, "line")

    feature_names = [f"f{j}" for j in range(FEATURES)]
    cols = cluster.gather_table("obs", feature_names + ["y"])
    nparts = cluster.node_count
    full = hpdglm(
        LocalArray(np.asarray(cols["y"]).reshape(-1, 1), nparts),
        LocalArray(np.column_stack([cols[n] for n in feature_names]), nparts),
        family="gaussian",
    )
    assert np.allclose(incremental.coefficients, full.coefficients, atol=1e-9)
    assert incremental.deviance == pytest.approx(full.deviance, abs=1e-6)
