"""The ``WITHIN n% ERROR`` query rewriter.

After semantic analysis admits a single-aggregate SELECT with a ``WITHIN``
clause, the executor hands it here instead of scanning the base table.
The rewriter picks the best qualifying sample (highest nominal rate among
the samples built on the query's table that the user holds USAGE on and
whose backing table still exists), reads *it* instead of the base table —
through the cluster's per-node scan sources, the WHERE predicate pruning
and filtering like any SELECT's — and scales the aggregate up with the
Horvitz–Thompson estimators from :mod:`repro.aqp.estimator`.

The answer is served only when the realized CLT half-width meets the
requested relative error bound — ``half_width <= bound * |estimate|`` —
otherwise the rewriter declines (returns ``None``) and the executor
transparently runs the exact query.  Declines for any reason (no sample,
empty qualifying sample, bound unmet) count into ``aqp_fallbacks``;
served answers count into ``aqp_rewrites``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.aqp.build import BASE_ROWID_COLUMN
from repro.aqp.catalog import SampleRecord
from repro.aqp.estimator import Estimate, ht_estimate
from repro.vertica import expressions
from repro.vertica.models import Privilege
from repro.vertica.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster

__all__ = ["ApproximateAnswer", "answer_within", "candidate_samples",
           "DEFAULT_CONFIDENCE", "RESULT_COLUMNS"]

#: Confidence level when the query omits the CONFIDENCE clause.
DEFAULT_CONFIDENCE = 0.95

#: Column shape of every WITHIN result row (approximate or exact fallback).
RESULT_COLUMNS = ("estimate", "ci_low", "ci_high", "sample_fraction")


@dataclass(frozen=True)
class ApproximateAnswer:
    """One served approximate aggregate."""

    estimate: float
    ci_low: float
    ci_high: float
    sample_fraction: float
    sample: str


def candidate_samples(
    cluster: "VerticaCluster", table: str, user: str,
) -> list[SampleRecord]:
    """Samples that could answer a WITHIN query over ``table``: built on
    it, backing table intact, USAGE granted — best (highest rate) first."""
    out = [
        record for record in cluster.aqp.samples_on(table)
        if cluster.catalog.has_table(record.name)
        and record.allows(user, Privilege.USAGE)
    ]
    out.sort(key=lambda r: (-r.rate, r.name))
    return out


def _filtered_batch(
    cluster: "VerticaCluster", record: SampleRecord,
    call: ast.AggregateCall, where: ast.Expr | None, snapshot,
) -> dict[str, np.ndarray]:
    """Gather the sample's needed columns, filtered by the WHERE predicate."""
    needed: set[str] = {BASE_ROWID_COLUMN}
    if call.arg is not None:
        needed |= expressions.columns_referenced(call.arg)
    if record.strata_column is not None:
        needed.add(record.strata_column)
    return cluster.gather_table(record.name, needed, where=where,
                                snapshot=snapshot)


def _row_weights(record: SampleRecord,
                 batch: dict[str, np.ndarray]) -> np.ndarray:
    rows = len(batch[BASE_ROWID_COLUMN])
    if record.kind == "stratified":
        assert record.strata_column is not None
        strata = batch[record.strata_column]
        rates = np.fromiter(
            (record.inclusion_rate(value) for value in strata.tolist()),
            dtype=np.float64, count=rows,
        )
        return 1.0 / rates
    return np.full(rows, 1.0 / record.rate, dtype=np.float64)


def _estimate_from(
    cluster: "VerticaCluster", record: SampleRecord,
    call: ast.AggregateCall, where: ast.Expr | None, confidence: float,
    snapshot,
) -> Estimate | None:
    batch = _filtered_batch(cluster, record, call, where, snapshot)
    if not len(batch[BASE_ROWID_COLUMN]):
        return None  # nothing matched in the sample: no bounded answer
    weights = _row_weights(record, batch)
    values = None
    if call.arg is not None:
        values = np.asarray(
            expressions.evaluate(call.arg, batch), dtype=np.float64)
    if call.name in ("SUM", "AVG") and values is None:
        return None
    return ht_estimate(call.name, values, weights, confidence)


def answer_within(
    cluster: "VerticaCluster",
    statement: ast.Select,
    user: str,
    snapshot=None,
) -> ApproximateAnswer | None:
    """Try to answer a WITHIN query from a stored sample.

    Returns ``None`` when no sample can meet the bound; the caller falls
    back to exact execution.
    """
    assert statement.within_error is not None and statement.table is not None
    bound = statement.within_error
    confidence = (statement.confidence
                  if statement.confidence is not None else DEFAULT_CONFIDENCE)
    call = statement.items[0].expr
    assert isinstance(call, ast.AggregateCall)
    with cluster.tracer.span("aqp.rewrite", table=statement.table) as span:
        for record in candidate_samples(cluster, statement.table, user):
            estimate = _estimate_from(
                cluster, record, call, statement.where, confidence, snapshot)
            if estimate is None:
                continue
            if estimate.half_width > bound * abs(estimate.estimate):
                continue  # realized CI too wide: try a denser sample
            fraction = (record.sample_rows / record.base_rows
                        if record.base_rows else record.rate)
            span.set(sample=record.name, served=1,
                     half_width=estimate.half_width)
            cluster.metrics.counter("aqp_rewrites").add()
            return ApproximateAnswer(
                estimate=estimate.estimate,
                ci_low=estimate.ci_low,
                ci_high=estimate.ci_high,
                sample_fraction=fraction,
                sample=record.name,
            )
        span.set(served=0)
        cluster.metrics.counter("aqp_fallbacks").add()
    return None
