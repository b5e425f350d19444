"""Epoch-incremental model refresh: the engine behind ``REFRESH MODEL``.

A deployed model is stamped with the committed epoch its training data was
read at (:attr:`~repro.vertica.models.ModelRecord.commit_epoch`).  Trickle
inserts land in later epochs and the model silently goes stale;
:func:`refresh_model` brings it back to the current snapshot by folding in
exactly the rows committed in ``(commit_epoch, snapshot]``:

* gaussian GLMs and naive Bayes carry *additive sufficient statistics*
  (``X'X`` / ``X'y`` / response moments; per-class moments), so the refresh
  is a pure delta fold — gather only the new epochs via
  :meth:`~repro.vertica.cluster.VerticaCluster.gather_table` with
  ``since_epoch``, add their moments, and re-solve the small system.  Cost
  scales with the delta, not the table.
* every other family (Lloyd centers, forests, non-gaussian GLMs) has no
  additive state, so the refresh is a full refit at the snapshot — still
  driven by the model's recorded training provenance, through the same
  solvers.

Guards force the full refit whenever the delta cannot be trusted:

* a delete committed inside the window — the insert delta cannot express
  rows *removed* from the prefix the model already folded in;
* ``commit_epoch`` behind the ancient-history mark — the Tuple Mover may
  have re-stamped storage at purged epochs, so the window is ambiguous.

Either way the refreshed record is stamped with the *snapshot* epoch (not a
fresh commit), because that is the last epoch whose rows the model has seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.deploy.deploy import deploy_model, load_model
from repro.errors import CatalogError, ModelError
from repro.vertica.models import ModelRecord, Privilege

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster

__all__ = ["refresh_model", "RefreshResult"]

#: Algorithms refresh_model knows how to refit from training provenance.
_REFITTABLE = ("glm", "kmeans", "naivebayes", "randomforest")


@dataclass
class RefreshResult:
    """What one ``REFRESH MODEL`` invocation did."""

    model: str
    strategy: str          # "noop" | "incremental" | "refit"
    staleness_epochs: int  # how far behind the model was before the refresh
    rows_folded: int       # delta rows (incremental) or total rows (refit)
    record: ModelRecord


def _matrix(columns: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    parts = [np.asarray(columns[name], dtype=np.float64) for name in names]
    return np.column_stack(parts) if parts else np.empty((0, 0))


def _refresh_glm(model: Any, delta_features: np.ndarray,
                 delta_responses: np.ndarray, params: dict) -> Any | None:
    """Fold delta rows into a gaussian GLM's normal equations; None when the
    model carries no sufficient statistics (non-gaussian, or a pre-stats
    blob)."""
    from repro.algorithms.families import family_by_name
    from repro.algorithms.glm import GlmModel, _standard_errors

    stats = getattr(model, "sufficient_stats", None)
    if stats is None or model.family != "gaussian":
        return None
    responses = np.asarray(delta_responses, dtype=np.float64).ravel()
    if model.intercept:
        design = np.column_stack(
            [np.ones(len(delta_features)), delta_features])
    else:
        design = delta_features
    xtx = np.asarray(stats["xtx"], dtype=np.float64) + design.T @ design
    xty = np.asarray(stats["xty"], dtype=np.float64) + design.T @ responses
    n, sum_y, yty = (float(v) for v in np.asarray(stats["moments"]))
    n += len(responses)
    sum_y += float(np.sum(responses))
    yty += float(np.sum(np.square(responses)))

    p = len(xty)
    ridge = float(params.get("ridge", 0.0))
    xtwx = xtx + ridge * np.eye(p) if ridge else xtx
    try:
        beta = np.linalg.solve(xtwx, xty)
    except np.linalg.LinAlgError:
        beta, *_ = np.linalg.lstsq(xtwx, xty, rcond=None)
    # ||y - Xb||^2 expanded through the updated moments: the delta fold
    # never re-reads the prefix rows.
    deviance = float(yty - 2.0 * beta @ xty + beta @ xtx @ beta)
    null_deviance = float(yty - sum_y * sum_y / n) if n else 0.0
    family = family_by_name(model.family)
    return GlmModel(
        coefficients=beta,
        family=model.family,
        link=model.link,
        intercept=model.intercept,
        iterations=model.iterations,
        deviance=deviance,
        null_deviance=null_deviance,
        converged=True,
        n_observations=int(n),
        feature_names=list(model.feature_names),
        standard_errors=_standard_errors(xtwx, family, deviance, int(n), p),
        sufficient_stats={
            "xtx": xtx,
            "xty": xty,
            "moments": np.asarray([n, sum_y, yty], dtype=np.float64),
        },
    )


def _refresh_naive_bayes(model: Any, delta_features: np.ndarray,
                         delta_responses: np.ndarray) -> Any | None:
    """Fold delta rows into naive Bayes class moments with the fit's own
    fold; None when the stats are missing or the delta introduces an unseen
    class (shape change → refit)."""
    from repro.algorithms.naive_bayes import _NaiveBayesFold, model_from_moments

    stats = getattr(model, "sufficient_stats", None)
    if stats is None:
        return None
    stored = tuple(np.asarray(stats[key], dtype=np.float64)
                   for key in ("counts", "sums", "squares"))
    labels = np.asarray(delta_responses).ravel().astype(np.int64)
    if labels.min(initial=0) < 0:
        raise ModelError("naive Bayes labels must be non-negative integers")
    if labels.max(initial=-1) >= len(stored[0]):
        return None  # new class appeared: parameter shape changes, refit
    fold = _NaiveBayesFold(len(stored[0]))
    delta = fold.partial(None, 0, delta_features, labels)
    return model_from_moments(*fold.merge([stored, delta]))


def _refit(cluster: "VerticaCluster", training: dict, snapshot) -> Any:
    """Full refit at the snapshot from the recorded training provenance."""
    from repro.algorithms import (
        LocalArray,
        hpdglm,
        hpdkmeans,
        hpdnaivebayes,
        hpdrandomforest,
    )

    algorithm = training["algorithm"]
    if algorithm not in _REFITTABLE:
        raise ModelError(
            f"cannot refresh algorithm {algorithm!r}; "
            f"known algorithms: {list(_REFITTABLE)}"
        )
    feature_names = list(training["features"])
    response = training.get("response")
    names = feature_names + ([response] if response else [])
    columns = cluster.gather_table(training["table"], names,
                                   snapshot=snapshot)
    matrix = _matrix(columns, feature_names)
    npartitions = max(1, cluster.node_count)
    params = dict(training.get("params") or {})
    features = LocalArray(matrix, npartitions=npartitions)
    if algorithm == "kmeans":
        return hpdkmeans(features, **params)
    if not response:
        raise ModelError(
            f"training provenance for {algorithm!r} must name a response column"
        )
    responses = LocalArray(
        np.asarray(columns[response], dtype=np.float64).reshape(-1, 1),
        npartitions=npartitions,
    )
    if algorithm == "glm":
        return hpdglm(responses, features, **params)
    if algorithm == "naivebayes":
        return hpdnaivebayes(responses, features, **params)
    return hpdrandomforest(responses, features, **params)


def refresh_model(cluster: "VerticaCluster", name: str,
                  user: str | None = None) -> RefreshResult:
    """Bring a deployed model up to the current committed snapshot.

    The SQL surface is ``REFRESH MODEL <name>``.  Requires ``modify``
    privilege (the refresh replaces the blob).  Raises
    :class:`~repro.errors.CatalogError` when the model was deployed without
    training provenance (``deploy_model(..., training=...)``).
    """
    record = cluster.r_models.get(name, user=user, privilege=Privilege.MODIFY)
    if record.training is None:
        raise CatalogError(
            f"model {name!r} has no training provenance; redeploy with "
            "deploy_model(..., training={...}) to make it refreshable"
        )
    training = record.training
    snapshot = cluster.catalog.epochs.snapshot()
    since = record.commit_epoch
    staleness = max(0, snapshot.epoch - since)
    # Level = staleness seen by the latest refresh; peak = worst ever seen.
    cluster.metrics.gauge("model_staleness_epochs").set(staleness)
    if since >= snapshot.epoch:
        return RefreshResult(name, "noop", 0, 0, record)

    table = cluster.catalog.get_table(training["table"])
    model = load_model(cluster, name, user=user)
    feature_names = list(training["features"])
    response = training.get("response")
    algorithm = training["algorithm"]

    new_model: Any | None = None
    strategy = "refit"
    rows_folded = 0
    if (algorithm in ("glm", "naivebayes")
            and table.insert_only_since(since, snapshot)):
        names = feature_names + ([response] if response else [])
        delta = cluster.gather_table(table.name, names, snapshot=snapshot,
                                     since_epoch=since)
        delta_features = _matrix(delta, feature_names)
        rows_folded = len(delta_features)
        if rows_folded == 0:
            # Nothing visible changed in the window: restamp and return.
            record.commit_epoch = snapshot.epoch
            return RefreshResult(name, "noop", staleness, 0, record)
        delta_responses = delta[response] if response else np.empty(0)
        if algorithm == "glm":
            params = dict(training.get("params") or {})
            new_model = _refresh_glm(model, delta_features, delta_responses,
                                     params)
        else:
            new_model = _refresh_naive_bayes(model, delta_features,
                                             delta_responses)
        if new_model is not None:
            strategy = "incremental"

    if new_model is None:
        new_model = _refit(cluster, training, snapshot)
        strategy = "refit"
        rows_folded = int(new_model.n_observations)

    new_record = deploy_model(
        cluster, new_model, name,
        owner=record.owner, description=record.description,
        replace=True, training=training,
    )
    # The refreshed model has seen exactly the rows visible at the snapshot;
    # data committed while we were refreshing is the *next* refresh's delta.
    new_record.commit_epoch = snapshot.epoch
    return RefreshResult(name, strategy, staleness, rows_folded, new_record)
