"""Hash equi-joins for the SQL layer.

Supports ``FROM a [alias] [INNER|LEFT] JOIN b [alias] ON <cond>`` where the
condition contains at least one cross-table equality (further conjuncts are
applied as residual filters).  The analyzer resolves the statement's names
and splits the condition (:class:`~repro.vertica.sql.analyzer.BoundJoin`);
this module only executes that binding.  The initiator gathers both inputs
through the cluster's per-node scan sources (failover, scan slots and scan
telemetry included) and builds a classic hash join: factorize both sides'
keys into shared integer codes, sort the build side, and probe with
``searchsorted`` — fully vectorized.

Column naming in the joined batch: every column appears under its qualified
key (``alias.column``); columns whose bare name is unambiguous across the
two inputs also appear under the bare name, matching SQL resolution rules.
"""

from __future__ import annotations

from contextlib import closing
from typing import TYPE_CHECKING

import numpy as np

from repro.vertica import expressions
from repro.vertica.pipeline import concat_batches
from repro.vertica.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster
    from repro.vertica.sql.analyzer import BoundJoin
    from repro.vertica.txn.epochs import Snapshot

__all__ = ["materialize_join"]


def materialize_join(cluster: "VerticaCluster", stmt: ast.Select,
                     bound: "BoundJoin",
                     snapshot: "Snapshot | None" = None,
                     ) -> dict[str, np.ndarray]:
    """Execute the join of ``stmt`` as the analyzer bound it.

    The returned batch maps qualified (and unambiguous bare) column keys to
    aligned arrays.  Both sides read at the same ``snapshot`` (epochs come
    from one shared clock).
    """
    join = stmt.join
    left_alias, right_alias = bound.left_alias, bound.right_alias
    left_data = _gather_input(cluster, stmt.table, bound.left_columns,
                              snapshot)
    right_data = _gather_input(cluster, join.table, bound.right_columns,
                               snapshot)
    cluster.telemetry.add("join_rows_scanned",
                          _rows(left_data) + _rows(right_data))

    left_env = _side_env(left_data, left_alias)
    right_env = _side_env(right_data, right_alias)
    left_key_codes, right_key_codes = _composite_codes(
        [np.atleast_1d(np.asarray(expressions.evaluate(e, left_env)))
         for e, _ in bound.equalities],
        [np.atleast_1d(np.asarray(expressions.evaluate(e, right_env)))
         for _, e in bound.equalities],
    )

    left_index, right_index, matched = _hash_join(
        left_key_codes, right_key_codes, join.kind)
    cluster.telemetry.add("join_rows_produced", len(left_index))

    batch: dict[str, np.ndarray] = {}
    for column in sorted(bound.left_columns):
        values = np.atleast_1d(np.asarray(left_data[column]))[left_index]
        batch[f"{left_alias}.{column}"] = values
    for column in sorted(bound.right_columns):
        source = np.atleast_1d(np.asarray(right_data[column]))
        if len(source) == 0 and len(right_index):
            # LEFT JOIN against an empty right side: every output row is
            # unmatched; fabricate a placeholder column to null out below.
            values = np.zeros(len(right_index), dtype=source.dtype) \
                if source.dtype != object \
                else np.full(len(right_index), None, dtype=object)
        else:
            values = source[right_index]
        if join.kind == "left" and not matched.all():
            values = _null_out(values, ~matched)
        batch[f"{right_alias}.{column}"] = values
    # Unambiguous bare names resolve without qualification.
    for alias, columns in ((left_alias, bound.left_columns),
                           (right_alias, bound.right_columns)):
        for column in columns - bound.ambiguous:
            batch[column] = batch[f"{alias}.{column}"]

    # Residual (non-equality) join conjuncts filter the joined rows; for a
    # LEFT join they only apply to matched rows (unmatched rows survive).
    for conj in bound.residual:
        mask = np.atleast_1d(
            np.asarray(expressions.evaluate(conj, batch), dtype=bool))
        if join.kind == "left":
            mask = mask | ~matched
        batch = {key: arr[mask] for key, arr in batch.items()}
        matched = matched[mask]
    return batch


def _gather_input(cluster: "VerticaCluster", table_name: str,
                  columns: frozenset[str], snapshot: "Snapshot | None",
                  ) -> dict[str, np.ndarray]:
    """Collect one join input from the table's per-node scan sources.

    Nodes are read one at a time in node-index order, each stream closed
    before the next opens: rows arrive in node-major storage order and the
    join never holds two scan slots at once.
    """
    batches: list[dict[str, np.ndarray]] = []
    sources = cluster.stream_table_per_node(table_name, columns,
                                            snapshot=snapshot)
    for node, source in enumerate(sources):
        with cluster.tracer.span("scan.node", node=node), \
                closing(source()) as stream:
            batches.extend(stream)
    if not batches:
        return cluster.typed_empty_batch(table_name, columns)
    return concat_batches(batches)


def _rows(data: dict[str, np.ndarray]) -> int:
    for arr in data.values():
        return len(np.atleast_1d(arr))
    return 0


def _side_env(data: dict[str, np.ndarray], alias: str) -> dict[str, np.ndarray]:
    env = {name: np.atleast_1d(np.asarray(arr)) for name, arr in data.items()}
    env.update({f"{alias}.{name}": arr for name, arr in env.items()
                if "." not in name})
    return env


def _composite_codes(left_keys: list[np.ndarray], right_keys: list[np.ndarray]):
    """Factorize multi-column keys into comparable integer codes."""
    left_rows = len(left_keys[0]) if left_keys else 0
    right_rows = len(right_keys[0]) if right_keys else 0
    left_combined = np.zeros(left_rows, dtype=np.int64)
    right_combined = np.zeros(right_rows, dtype=np.int64)
    for left_arr, right_arr in zip(left_keys, right_keys):
        left_side = np.asarray(left_arr)
        right_side = np.asarray(right_arr)
        if (left_side.dtype.kind in "biuf" and right_side.dtype.kind in "biuf"):
            # Numeric keys compare numerically (int 5 joins float 5.0).
            both = np.concatenate([
                left_side.astype(np.float64), right_side.astype(np.float64)
            ])
        else:
            both = np.concatenate([
                left_side.astype(object), right_side.astype(object)
            ]).astype(str)
        _, inverse = np.unique(both, return_inverse=True)
        cardinality = int(inverse.max()) + 1 if len(inverse) else 1
        left_combined = left_combined * cardinality + inverse[:left_rows]
        right_combined = right_combined * cardinality + inverse[left_rows:]
    return (left_combined, right_combined)


def _hash_join(left_codes: np.ndarray, right_codes: np.ndarray, kind: str):
    """Match rows by code; returns (left_index, right_index, matched_mask)."""
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    starts = np.searchsorted(sorted_codes, left_codes, side="left")
    ends = np.searchsorted(sorted_codes, left_codes, side="right")
    counts = ends - starts
    if kind == "left":
        effective = np.maximum(counts, 1)  # unmatched rows appear once
    else:
        effective = counts
    left_index = np.repeat(np.arange(len(left_codes)), effective)
    total = int(effective.sum())
    offsets = np.repeat(np.cumsum(effective) - effective, effective)
    within = np.arange(total) - offsets
    matched_row = np.repeat(counts > 0, effective)
    probe = np.repeat(starts, effective) + within
    probe = np.clip(probe, 0, max(len(order) - 1, 0))
    right_index = order[probe] if len(order) else np.zeros(total, dtype=np.int64)
    return left_index, right_index, matched_row


def _null_out(values: np.ndarray, null_mask: np.ndarray) -> np.ndarray:
    """Null the unmatched rows of a LEFT join's right-side column."""
    values = np.atleast_1d(values)
    if values.dtype == object:
        out = values.copy()
        out[null_mask] = None
        return out
    out = values.astype(np.float64, copy=True)
    out[null_mask] = np.nan
    return out
