"""Hash equi-joins for the SQL layer.

Supports ``FROM a [alias] [INNER|LEFT] JOIN b [alias] ON <cond>`` where the
condition contains at least one cross-table equality (further conjuncts are
applied as residual filters).  The initiator gathers both inputs through the
cluster's per-node scan sources (failover, scan slots and scan telemetry
included) and builds a classic hash join: factorize both sides' keys into
shared integer codes, sort the build side, and probe with ``searchsorted`` —
fully vectorized.

Column naming in the joined batch: every column appears under its qualified
key (``alias.column``); columns whose bare name is unambiguous across the
two inputs also appear under the bare name, matching SQL resolution rules.
"""

from __future__ import annotations

from contextlib import closing
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SqlAnalysisError
from repro.vertica import expressions
from repro.vertica.models import R_MODELS_TABLE_NAME
from repro.vertica.pipeline import concat_batches
from repro.vertica.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster
    from repro.vertica.txn.epochs import Snapshot

__all__ = ["materialize_join"]


def materialize_join(cluster: "VerticaCluster", stmt: ast.Select,
                     snapshot: "Snapshot | None" = None,
                     ) -> tuple[dict[str, np.ndarray], list[str]]:
    """Execute the join of ``stmt`` and return (batch, star column order).

    The batch maps qualified (and unambiguous bare) column keys to aligned
    arrays; the column order lists the qualified output names for
    ``SELECT *`` expansion (left columns then right columns).  Both sides
    read at the same ``snapshot`` (epochs come from one shared clock).
    """
    join = stmt.join
    left_name, right_name = stmt.table, join.table
    for name in (left_name, right_name):
        if name.lower() == R_MODELS_TABLE_NAME:
            raise SqlAnalysisError("R_Models cannot participate in joins")
    left_alias = stmt.table_alias or left_name
    right_alias = join.alias or right_name
    if left_alias == right_alias:
        raise SqlAnalysisError(
            f"both join inputs are named {left_alias!r}; use distinct aliases"
        )

    left_table = cluster.catalog.get_table(left_name)
    right_table = cluster.catalog.get_table(right_name)
    left_columns = set(left_table.column_names)
    right_columns = set(right_table.column_names)

    needed_left, needed_right = _resolve_references(
        stmt, left_alias, right_alias, left_columns, right_columns)

    # SELECT * needs every column from both sides.
    if stmt.select_star:
        needed_left = set(left_columns)
        needed_right = set(right_columns)

    # Always scan the key columns too.
    equalities, residual = _split_condition(
        join.condition, left_alias, right_alias, left_columns, right_columns)
    for left_expr, right_expr in equalities:
        needed_left |= _bare_columns(left_expr)
        needed_right |= _bare_columns(right_expr)
    for conj in residual:
        extra_left, extra_right = _classify_columns(
            conj, left_alias, right_alias, left_columns, right_columns)
        needed_left |= extra_left
        needed_right |= extra_right

    left_data = _gather_input(cluster, left_name, needed_left, snapshot)
    right_data = _gather_input(cluster, right_name, needed_right, snapshot)
    cluster.telemetry.add("join_rows_scanned",
                          _rows(left_data) + _rows(right_data))

    left_env = _side_env(left_data, left_alias)
    right_env = _side_env(right_data, right_alias)
    left_key_codes, right_key_codes = _composite_codes(
        [np.atleast_1d(np.asarray(expressions.evaluate(e, left_env)))
         for e, _ in equalities],
        [np.atleast_1d(np.asarray(expressions.evaluate(e, right_env)))
         for _, e in equalities],
    )

    left_index, right_index, matched = _hash_join(
        left_key_codes, right_key_codes, join.kind)
    cluster.telemetry.add("join_rows_produced", len(left_index))

    batch: dict[str, np.ndarray] = {}
    star_order: list[str] = []
    for column in sorted(needed_left):
        values = np.atleast_1d(np.asarray(left_data[column]))[left_index]
        batch[f"{left_alias}.{column}"] = values
    for column in sorted(needed_right):
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
    if stmt.select_star:
        star_order = ([f"{left_alias}.{c}" for c in left_table.column_names]
                      + [f"{right_alias}.{c}" for c in right_table.column_names])
    # Unambiguous bare names resolve without qualification.
    for column in needed_left:
        if column not in right_columns:
            batch[column] = batch[f"{left_alias}.{column}"]
    for column in needed_right:
        if column not in left_columns:
            batch[column] = batch[f"{right_alias}.{column}"]

    # Residual (non-equality) join conjuncts filter the joined rows; for a
    # LEFT join they only apply to matched rows (unmatched rows survive).
    for conj in residual:
        mask = np.atleast_1d(
            np.asarray(expressions.evaluate(conj, batch), dtype=bool))
        if join.kind == "left":
            mask = mask | ~matched
        batch = {key: arr[mask] for key, arr in batch.items()}
        matched = matched[mask]
    return batch, star_order


def _gather_input(cluster: "VerticaCluster", table_name: str,
                  columns: set[str], snapshot: "Snapshot | None",
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


def _bare_columns(expr: ast.Expr) -> set[str]:
    return {node.name for node in expr.walk() if isinstance(node, ast.ColumnRef)}


def _resolve_references(stmt, left_alias, right_alias, left_columns,
                        right_columns) -> tuple[set[str], set[str]]:
    """Classify every column reference in the statement to a side."""
    sources: list[ast.Expr] = [item.expr for item in stmt.items]
    if stmt.where is not None:
        sources.append(stmt.where)
    sources.extend(stmt.group_by)
    if stmt.having is not None:
        sources.append(stmt.having)
    sources.extend(order.expr for order in stmt.order_by)

    needed_left: set[str] = set()
    needed_right: set[str] = set()
    for expr in sources:
        extra_left, extra_right = _classify_columns(
            expr, left_alias, right_alias, left_columns, right_columns)
        needed_left |= extra_left
        needed_right |= extra_right
    return needed_left, needed_right


def _classify_columns(expr, left_alias, right_alias, left_columns,
                      right_columns) -> tuple[set[str], set[str]]:
    needed_left: set[str] = set()
    needed_right: set[str] = set()
    for node in expr.walk():
        if not isinstance(node, ast.ColumnRef):
            continue
        if node.qualifier == left_alias:
            if node.name not in left_columns:
                raise SqlAnalysisError(
                    f"{left_alias!r} has no column {node.name!r}")
            needed_left.add(node.name)
        elif node.qualifier == right_alias:
            if node.name not in right_columns:
                raise SqlAnalysisError(
                    f"{right_alias!r} has no column {node.name!r}")
            needed_right.add(node.name)
        elif node.qualifier is not None:
            raise SqlAnalysisError(
                f"unknown table qualifier {node.qualifier!r} "
                f"(inputs: {left_alias!r}, {right_alias!r})"
            )
        else:
            in_left = node.name in left_columns
            in_right = node.name in right_columns
            if in_left and in_right:
                raise SqlAnalysisError(
                    f"column {node.name!r} is ambiguous; qualify it with "
                    f"{left_alias!r} or {right_alias!r}"
                )
            if in_left:
                needed_left.add(node.name)
            elif in_right:
                needed_right.add(node.name)
            else:
                raise SqlAnalysisError(
                    f"unknown column {node.name!r} in join query")
    return needed_left, needed_right


def _split_condition(condition, left_alias, right_alias, left_columns,
                     right_columns):
    """Separate cross-table equality conjuncts from residual predicates.

    Returns ``(equalities, residual)`` where each equality is an
    ``(left_expr, right_expr)`` pair oriented left-side-first.
    """
    equalities: list[tuple[ast.Expr, ast.Expr]] = []
    residual: list[ast.Expr] = []
    for conj in _conjuncts(condition):
        oriented = _orient_equality(conj, left_alias, right_alias,
                                    left_columns, right_columns)
        if oriented is not None:
            equalities.append(oriented)
        else:
            residual.append(conj)
    if not equalities:
        raise SqlAnalysisError(
            "join condition must include at least one cross-table equality "
            "(e.g. ON a.key = b.key)"
        )
    return equalities, residual


def _conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _orient_equality(expr, left_alias, right_alias, left_columns,
                     right_columns):
    if not (isinstance(expr, ast.BinaryOp) and expr.op == "="):
        return None

    def side_of(sub: ast.Expr) -> str | None:
        lefts, rights = _classify_columns(
            sub, left_alias, right_alias, left_columns, right_columns)
        if lefts and not rights:
            return "left"
        if rights and not lefts:
            return "right"
        return None

    first, second = side_of(expr.left), side_of(expr.right)
    if first == "left" and second == "right":
        return (expr.left, expr.right)
    if first == "right" and second == "left":
        return (expr.right, expr.left)
    return None


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
