"""Sample materialization: ``CREATE SAMPLE`` and from-scratch rebuilds.

A sample is materialized as an ordinary segmented table holding the base
table's columns plus a ``base_rowid`` provenance column (the hidden rowid
of the originating base row).  Storing the base rowid makes two things
cheap: parity checks between an incrementally refreshed sample and a
from-scratch rebuild (sort by ``base_rowid`` and compare), and future
delete reconciliation.  Sample membership is the deterministic hash draw
from :mod:`repro.aqp.estimator`, so rebuilding at the same snapshot with
the same seed and rates reproduces the sample bit-for-bit.

Provenance (base table, rate, seed, per-stratum rates and counts, build
epoch) is registered in the cluster's :class:`~repro.aqp.catalog
.AqpCatalog` and mirrored as a JSON blob in the DFS, so the artifact
survives inspection paths that only see storage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING

import numpy as np

from repro.aqp.catalog import AqpCatalog, SampleRecord, sample_dfs_path
from repro.aqp.estimator import keep_mask, keep_mask_stratified, stratum_rates
from repro.errors import CatalogError
from repro.storage.encoding import ColumnSchema, SqlType
from repro.vertica.table import ROWID_COLUMN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster

__all__ = ["build_sample", "drop_sample", "materialize_sample",
           "default_seed", "BASE_ROWID_COLUMN"]

#: Provenance column every sample table carries: the base row's hidden rowid.
BASE_ROWID_COLUMN = "base_rowid"


def default_seed(name: str) -> int:
    """A stable per-sample seed derived from the sample's name."""
    digest = hashlib.sha256(name.lower().encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def _write_provenance(cluster: "VerticaCluster", record: SampleRecord) -> None:
    blob = json.dumps({
        "sample": record.name,
        "base_table": record.base_table,
        "kind": record.kind,
        "rate": record.rate,
        "seed": record.seed,
        "commit_epoch": record.commit_epoch,
        "base_rows": record.base_rows,
        "sample_rows": record.sample_rows,
        "strata_column": record.strata_column,
        "strata": sorted(
            (str(value), record.strata_rates.get(value, record.rate), count)
            for value, count in record.strata_counts.items()
        ),
    }).encode()
    cluster.dfs.write(sample_dfs_path(record.name), blob, overwrite=True)


def materialize_sample(
    cluster: "VerticaCluster",
    record: SampleRecord,
    snapshot=None,
    replace: bool = False,
) -> SampleRecord:
    """Create and fill the sample's backing table at ``snapshot``.

    The backing table must not exist yet, unless ``replace`` is set (a
    rebuild): the old table is then dropped, but only once the base read
    has succeeded, so a read that fails (a down node, an injected fault)
    leaves the old sample in place for a later refresh.

    Stratified records with empty ``strata_rates`` (a first build) get
    rates derived from the population counts observed here; non-empty
    rates are kept frozen, which is what makes an incremental fold and a
    rebuild select identical rows.
    Returns the record restamped with the snapshot epoch and row counts;
    the caller registers it in the :class:`AqpCatalog`.
    """
    base = cluster.catalog.get_table(record.base_table)
    if snapshot is None:
        snapshot = base.resolve_snapshot()
    columns = [schema.name for schema in base.user_schema]
    data = cluster.gather_table(base.name, columns + [ROWID_COLUMN],
                                snapshot=snapshot)
    rowids = data[ROWID_COLUMN]
    base_rows = len(rowids)

    strata_rates = dict(record.strata_rates)
    strata_counts: dict[object, int] = {}
    if record.kind == "stratified":
        assert record.strata_column is not None
        strata = data[record.strata_column]
        if base_rows:
            values, counts = np.unique(strata, return_counts=True)
            strata_counts = {
                value: int(count)
                for value, count in zip(values.tolist(), counts.tolist())
            }
        if not strata_rates:
            strata_rates = stratum_rates(strata_counts, record.rate)
        mask = keep_mask_stratified(
            rowids, strata, record.seed, strata_rates, record.rate)
    else:
        mask = keep_mask(rowids, record.seed, record.rate)

    schema = [ColumnSchema(s.name, s.sql_type) for s in base.user_schema]
    schema.append(ColumnSchema(BASE_ROWID_COLUMN, SqlType.INTEGER))
    # The sample is as fault tolerant as its base: a WITHIN query that
    # survives a node failure on the base survives it on the sample.
    if replace:
        cluster.drop_table(record.name, if_exists=True)
    sample_table = cluster.create_table(record.name, schema,
                                        k_safety=base.k_safety)
    kept = int(np.count_nonzero(mask))
    if kept:
        arrays = {name: data[name][mask] for name in columns}
        arrays[BASE_ROWID_COLUMN] = rowids[mask].astype(np.int64)
        sample_table.insert(arrays, direct=True)

    stamped = dataclasses.replace(
        record,
        commit_epoch=snapshot.epoch if snapshot is not None else 0,
        base_rows=base_rows,
        sample_rows=kept,
        strata_rates=strata_rates,
        strata_counts=strata_counts,
    )
    _write_provenance(cluster, stamped)
    return stamped


def build_sample(
    cluster: "VerticaCluster",
    name: str,
    base_table: str,
    rate: float,
    strata_column: str | None = None,
    seed: int | None = None,
    user: str = "dbadmin",
) -> SampleRecord:
    """``CREATE SAMPLE name ON base_table ...``: materialize and register.

    ``rate`` is a fraction in (0, 1]; passing ``strata_column`` builds a
    stratified sample (rare strata oversampled, see
    :func:`repro.aqp.estimator.stratum_rates`).
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sample rate must be in (0, 1]; got {rate}")
    catalog: AqpCatalog = cluster.aqp
    if catalog.exists(name):
        raise CatalogError(f"sample {name!r} already exists")
    if cluster.catalog.has_table(name):
        raise CatalogError(
            f"{name!r} already names a table; pick another sample name")
    base = cluster.catalog.get_table(base_table)
    if strata_column is not None:
        if strata_column not in {s.name for s in base.user_schema}:
            raise CatalogError(
                f"stratification column {strata_column!r} does not exist "
                f"on table {base_table!r}"
            )
    record = SampleRecord(
        name=name,
        base_table=base.name,
        kind="stratified" if strata_column is not None else "uniform",
        rate=float(rate),
        seed=seed if seed is not None else default_seed(name),
        owner=user,
        strata_column=strata_column,
    )
    with cluster.tracer.span("aqp.build", sample=name, table=base.name) as span:
        stamped = materialize_sample(cluster, record)
        span.set(base_rows=stamped.base_rows, sample_rows=stamped.sample_rows)
    catalog.add(stamped, user=user)
    cluster.metrics.counter("samples_built").add()
    return stamped


def drop_sample(cluster: "VerticaCluster", name: str,
                user: str = "dbadmin") -> SampleRecord:
    """``DROP SAMPLE name``: catalog entry, backing table, and DFS blob.

    Requires MODIFY on the sample (owner always qualifies), mirroring
    ``DROP TABLE`` semantics.
    """
    record = cluster.aqp.drop(name, user=user)
    cluster.drop_table(record.name, if_exists=True)
    path = sample_dfs_path(record.name)
    if cluster.dfs.exists(path):
        cluster.dfs.delete(path)
    return record
