"""Epoch-incremental sample maintenance.

A sample reflects its base table as of ``record.commit_epoch``.  Refresh
closes the gap to the current snapshot the same way ``REFRESH MODEL``
does for models: when the mutation window ``(commit_epoch, snapshot]``
contains only inserts (and still precedes the Ancient History Mark's
purge horizon), the delta rows are gathered with
:meth:`~repro.vertica.cluster.VerticaCluster.gather_table` over that
window (``since_epoch``), passed through the same
deterministic hash draw the build used, and the survivors trickle into
the sample table's WOS — cost scales with the delta, not the table.
Deletes in the window (or history lost behind the AHM) force a
from-scratch rebuild at the snapshot, with the record's inclusion rates
kept frozen so the rebuilt sample is bit-identical to what an untainted
incremental history would have produced.

The Tuple Mover calls :func:`auto_refresh_samples` after its
moveout/mergeout passes, folding only delta-safe samples (rebuilds drop
and recreate the backing table, which is too disruptive for a background
thread); the ``sample_staleness_epochs`` gauge reports the lag every
refresh observed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.aqp.build import BASE_ROWID_COLUMN, _write_provenance, materialize_sample
from repro.aqp.catalog import SampleRecord
from repro.aqp.estimator import keep_mask, keep_mask_stratified
from repro.errors import CatalogError, ReproError
from repro.vertica.models import Privilege
from repro.vertica.table import ROWID_COLUMN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster

__all__ = ["SampleRefreshResult", "refresh_sample", "auto_refresh_samples"]


@dataclass(frozen=True)
class SampleRefreshResult:
    """What one sample refresh did and why."""

    sample: str
    strategy: str  # "noop" | "incremental" | "rebuild" | "skipped"
    staleness_epochs: int
    rows_folded: int
    record: SampleRecord


def _merge_counts(old: dict[object, int],
                  delta: np.ndarray) -> dict[object, int]:
    merged = dict(old)
    if len(delta):
        values, counts = np.unique(delta, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            merged[value] = merged.get(value, 0) + int(count)
    return merged


def refresh_sample(
    cluster: "VerticaCluster",
    name: str,
    user: str = "dbadmin",
    allow_rebuild: bool = True,
) -> SampleRefreshResult:
    """Bring sample ``name`` up to the current committed snapshot.

    Requires MODIFY on the sample.  With ``allow_rebuild=False`` (the
    Tuple Mover's background mode) a refresh that would need a rebuild is
    reported as ``"skipped"`` instead of dropping the backing table out
    from under concurrent readers.  Passes over one sample serialize on a
    per-sample lock: a racing pair would read the same ``commit_epoch``
    and fold the same delta window twice.
    """
    with cluster.aqp.refresh_lock(name):
        return _refresh_locked(cluster, name, user, allow_rebuild)


def _refresh_locked(
    cluster: "VerticaCluster",
    name: str,
    user: str,
    allow_rebuild: bool,
) -> SampleRefreshResult:
    record = cluster.aqp.get(name, user=user, privilege=Privilege.MODIFY)
    base = cluster.catalog.get_table(record.base_table)
    sample_table = cluster.catalog.get_table(record.name)
    snapshot = cluster.catalog.epochs.snapshot()
    since = record.commit_epoch
    staleness = max(0, snapshot.epoch - since)
    cluster.metrics.gauge("sample_staleness_epochs").set(staleness)
    if since >= snapshot.epoch:
        return SampleRefreshResult(name, "noop", 0, 0, record)

    with cluster.tracer.span("aqp.refresh", sample=name,
                             table=base.name) as span:
        faults = cluster.faults
        if faults is not None:
            faults.perturb("aqp.refresh", sample=name, table=base.name)
        if not base.insert_only_since(since, snapshot):
            if not allow_rebuild:
                span.set(strategy="skipped", staleness=staleness)
                return SampleRefreshResult(name, "skipped", staleness, 0, record)
            # Deletes in the window (or purged history): rebuild from
            # scratch at the snapshot with the record's frozen rates.
            cleared = dataclasses.replace(record, strata_counts={})
            stamped = materialize_sample(cluster, cleared, snapshot,
                                         replace=True)
            cluster.aqp.add(stamped, replace=True, user=user)
            cluster.metrics.counter("sample_rebuilds").add()
            span.set(strategy="rebuild", staleness=staleness,
                     sample_rows=stamped.sample_rows)
            return SampleRefreshResult(name, "rebuild", staleness, 0, stamped)

        columns = [schema.name for schema in base.user_schema]
        delta = cluster.gather_table(base.name, columns + [ROWID_COLUMN],
                                     snapshot=snapshot, since_epoch=since)
        rowids = delta[ROWID_COLUMN]
        if record.kind == "stratified":
            assert record.strata_column is not None
            strata = delta[record.strata_column]
            mask = keep_mask_stratified(
                rowids, strata, record.seed, record.strata_rates, record.rate)
            new_counts = _merge_counts(record.strata_counts, strata)
        else:
            mask = keep_mask(rowids, record.seed, record.rate)
            new_counts = record.strata_counts
        kept = int(np.count_nonzero(mask))
        if kept:
            arrays = {name_: delta[name_][mask] for name_ in columns}
            arrays[BASE_ROWID_COLUMN] = rowids[mask].astype(np.int64)
            # direct=False: land in the sample's WOS like any trickle
            # insert (and without waking the Tuple Mover from inside its
            # own pass).
            sample_table.insert(arrays, direct=False)
        stamped = dataclasses.replace(
            record,
            commit_epoch=snapshot.epoch,
            base_rows=record.base_rows + len(rowids),
            sample_rows=record.sample_rows + kept,
            strata_counts=new_counts,
        )
        _write_provenance(cluster, stamped)
        cluster.aqp.add(stamped, replace=True, user=user)
        if kept:
            cluster.metrics.counter("sample_rows_folded").add(kept)
        span.set(strategy="incremental", staleness=staleness,
                 rows_folded=kept, delta_rows=len(rowids))
    return SampleRefreshResult(name, "incremental", staleness, kept, stamped)


def auto_refresh_samples(cluster: "VerticaCluster") -> int:
    """Fold every delta-safe stale sample; returns rows folded.

    Called by the Tuple Mover after its passes.  Samples whose base or
    backing table has been dropped are skipped quietly (a later DROP
    SAMPLE cleans the record up).  A sample whose fold fails (its base
    read meets a down node with no buddy, or an injected fault) stays
    stale without holding up the others; the first such error is raised
    once every sample has been tried, so the mover sees the pass fail.
    """
    folded = 0
    failure: ReproError | None = None
    for record in cluster.aqp.records():
        if not (cluster.catalog.has_table(record.base_table)
                and cluster.catalog.has_table(record.name)):
            continue
        try:
            result = refresh_sample(
                cluster, record.name, user=record.owner, allow_rebuild=False)
        except CatalogError:  # dropped concurrently between check and refresh
            continue
        except ReproError as exc:
            failure = failure or exc
            continue
        folded += result.rows_folded
    if failure is not None:
        raise failure
    return folded
