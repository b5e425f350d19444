"""DELETE and UPDATE statement execution over the MVCC storage.

Neither statement rewrites read-optimized storage:

* ``DELETE FROM t WHERE ...`` scans for matching rows at the statement's
  snapshot — through the cluster's per-node scan sources, so it takes scan
  slots, fails over to buddy replicas and prunes by the WHERE's zone-map
  ranges like any SELECT — and records their rowids in the per-segment
  delete vectors, stamped with one freshly committed epoch;
* ``UPDATE t SET ... WHERE ...`` is Vertica's delete-plus-reinsert: the
  matched rows are deleted (delete vector) and their updated images
  re-inserted through the WOS — both stamped with the *same* epoch, so a
  snapshot sees either the old rows or the new rows, never both or
  neither.

Both run behind the analyzer, which has already bound the table and
validated every column reference and SET target.

Statements against one table serialize on ``Table.write_lock``: the
delete vector itself resolves write-write conflicts first-wins, but two
interleaved collect/apply phases could, e.g., double-apply an UPDATE's
SET expressions.  Readers are never blocked — they run against frozen
snapshots throughout.
"""

from __future__ import annotations

from contextlib import closing
from typing import TYPE_CHECKING

import numpy as np

from repro.vertica import expressions
from repro.vertica.pruning import extract_column_ranges
from repro.vertica.table import ROWID_COLUMN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster
    from repro.vertica.sql import ast
    from repro.vertica.sql.analyzer import ResolvedQuery
    from repro.vertica.table import Table

__all__ = ["execute_delete", "execute_update"]


def execute_delete(cluster: "VerticaCluster", stmt: "ast.Delete",
                   resolved: "ResolvedQuery") -> int:
    """Apply one analyzed DELETE; returns the number of rows deleted."""
    table = cluster.catalog.get_table(stmt.table)
    with table.write_lock:
        snapshot = table.resolve_snapshot()
        matched = _collect_matches(cluster, table, stmt.where, snapshot,
                                   columns=resolved.columns_needed)
        total = sum(len(rowids) for _, rowids in matched)
        if total == 0:
            return 0
        epochs = cluster.catalog.epochs
        epoch = epochs.begin()
        try:
            added = _mark_deleted(table, matched, epoch)
        except BaseException:
            for segment in table.all_segments():
                segment.delete_vector.rollback_epoch(epoch)
            epochs.abort(epoch)
            raise
        table.note_commit(epoch)
        epochs.commit(epoch)
    cluster.metrics.gauge("delete_vector_rows").add(added)
    cluster.metrics.counter("rows_deleted").add(total)
    cluster.tuple_mover.notify()
    return total


def execute_update(cluster: "VerticaCluster", stmt: "ast.Update") -> int:
    """Apply one analyzed UPDATE; returns the number of rows updated."""
    table = cluster.catalog.get_table(stmt.table)
    with table.write_lock:
        snapshot = table.resolve_snapshot()
        matched = _collect_matches(cluster, table, stmt.where, snapshot,
                                   columns=table.column_names,
                                   keep_batches=True)
        total = sum(len(rowids) for _, rowids in matched)
        if total == 0:
            return 0
        old = _concat_matches(matched, table.column_names)
        new_arrays = dict(old)
        for name, expr in stmt.assignments:
            new_arrays[name] = expressions.evaluate_rows(expr, old, total)
        epochs = cluster.catalog.epochs
        epoch = epochs.begin()
        try:
            added = _mark_deleted(table, matched, epoch)
            table.insert(new_arrays, direct=False, epoch=epoch)
        except BaseException:
            for segment in table.all_segments():
                segment.delete_vector.rollback_epoch(epoch)
                segment.rollback_epoch(epoch)
            epochs.abort(epoch)
            raise
        table.note_commit(epoch)
        epochs.commit(epoch)
    cluster.metrics.gauge("delete_vector_rows").add(added)
    cluster.metrics.counter("rows_updated").add(total)
    cluster.tuple_mover.notify()
    return total


# -- shared plumbing ---------------------------------------------------------


def _collect_matches(cluster: "VerticaCluster", table: "Table", where,
                     snapshot, columns, keep_batches: bool = False):
    """Per-node matching rows at ``snapshot``.

    Each node's scan source is pulled in turn, pruned by the WHERE's
    zone-map ranges.  Returns ``[(batches_or_None, rowids)]`` per node;
    with ``keep_batches=True`` the filtered column batches ride along (the
    UPDATE path needs the old row images for its SET expressions).
    """
    matched = []
    for source in cluster.stream_table_per_node(
            table.name, {*columns, ROWID_COLUMN},
            ranges=extract_column_ranges(where), snapshot=snapshot):
        rowid_chunks: list[np.ndarray] = []
        batch_chunks: list[dict[str, np.ndarray]] = []
        with closing(source()) as stream:
            for batch in stream:
                batch = expressions.apply_where(where, batch)
                if not expressions.batch_rows(batch):
                    continue
                rowid_chunks.append(batch[ROWID_COLUMN])
                if keep_batches:
                    batch_chunks.append(batch)
        rowids = (np.concatenate(rowid_chunks) if rowid_chunks
                  else np.empty(0, dtype=np.int64))
        matched.append((batch_chunks if keep_batches else None, rowids))
    return matched


def _concat_matches(matched, columns: list[str]) -> dict[str, np.ndarray]:
    chunks = [batch for batches, _ in matched for batch in (batches or [])]
    return {
        name: np.concatenate([c[name] for c in chunks])
        for name in columns
    }


def _mark_deleted(table: "Table", matched, epoch: int) -> int:
    """Record the matched rowids in the delete vectors (primary + buddy).

    Returns entries added to *primary* vectors (what the
    ``delete_vector_rows`` gauge tracks).
    """
    added = 0
    for node, (_, rowids) in enumerate(matched):
        if not len(rowids):
            continue
        added += table.segments[node].delete_vector.add(rowids, epoch)
        if table.buddy_segments is not None:
            table.buddy_segments[node].delete_vector.add(rowids, epoch)
    return added
