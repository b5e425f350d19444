"""Query planning: classify statements and size UDTF fan-out.

The planner turns a parsed :class:`~repro.vertica.sql.ast.Select` into one of
three physical plan shapes — plain scan, two-phase aggregate, or UDTF
fan-out — and decides the per-node instance counts for ``PARTITION BEST``
("The Vertica query planner starts many parallel instances of user-defined
functions. The amount of parallelism is dependent on resources available and
how the input table is partitioned", §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SqlAnalysisError
from repro.vertica.expressions import columns_referenced
from repro.vertica.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.sql.analyzer import ResolvedQuery

__all__ = ["ScanPlan", "AggregatePlan", "UdtfPlan", "plan_select",
           "instance_boundaries"]


def instance_boundaries(rows: int, instances: int) -> list[int]:
    """Contiguous per-instance row offsets for ``PARTITION BEST`` fan-out.

    Returns ``instances + 1`` monotonically increasing boundaries over
    ``[0, rows]`` (clamping the instance count to the available rows).  The
    UDTF router cuts a node's pre-filter row positions at these offsets,
    slicing batches as they flow past, so the row ranges each instance sees
    do not depend on how the scan was batched.
    """
    instances = max(1, min(instances, rows)) if rows else 1
    return [int(b) for b in np.linspace(0, rows, instances + 1)]


@dataclass
class ScanPlan:
    """Filter + project + optional order/limit, no grouping."""

    table: str
    items: list[ast.SelectItem]
    select_star: bool
    where: ast.Expr | None
    order_by: list[ast.OrderItem]
    limit: int | None
    distinct: bool = False
    columns_needed: set[str] = field(default_factory=set)


@dataclass
class AggregatePlan:
    """Two-phase aggregation: per-node partials merged on the initiator."""

    table: str
    items: list[ast.SelectItem]
    group_by: list[ast.Expr]
    aggregates: list[ast.AggregateCall]
    where: ast.Expr | None
    having: ast.Expr | None
    order_by: list[ast.OrderItem]
    limit: int | None
    columns_needed: set[str] = field(default_factory=set)


@dataclass
class UdtfPlan:
    """Transform-function fan-out over a partitioning of the table."""

    table: str
    udtf: ast.UdtfCall
    where: ast.Expr | None
    columns_needed: set[str] = field(default_factory=set)


def plan_select(stmt: ast.Select,
                resolved: "ResolvedQuery | None" = None
                ) -> ScanPlan | AggregatePlan | UdtfPlan:
    """Classify and validate a SELECT statement.

    ``resolved`` is the analyzer's annotation for this statement; when
    present its pre-computed projection set replaces the per-clause column
    walks below (the validation raises stay, for callers that plan without
    analyzing first).
    """
    if stmt.table is None:
        raise SqlAnalysisError("SELECT without FROM is not supported")
    precomputed = (set(resolved.columns_needed)
                   if resolved is not None else None)

    if stmt.udtf is not None:
        if stmt.group_by or stmt.having or stmt.order_by or stmt.limit is not None:
            raise SqlAnalysisError(
                "UDTF queries do not support GROUP BY / HAVING / ORDER BY / LIMIT"
            )
        if precomputed is not None:
            return UdtfPlan(stmt.table, stmt.udtf, stmt.where, precomputed)
        needed: set[str] = set()
        for arg in stmt.udtf.args:
            needed |= columns_referenced(arg)
        if stmt.udtf.partition.expr is not None:
            needed |= columns_referenced(stmt.udtf.partition.expr)
        if stmt.where is not None:
            needed |= columns_referenced(stmt.where)
        return UdtfPlan(stmt.table, stmt.udtf, stmt.where, needed)

    if stmt.distinct and (stmt.group_by or _has_any_aggregate(stmt)):
        raise SqlAnalysisError("SELECT DISTINCT cannot combine with GROUP BY")
    aggregates = _collect_aggregates(stmt)
    if aggregates or stmt.group_by:
        if stmt.select_star:
            raise SqlAnalysisError("SELECT * cannot be combined with aggregation")
        if precomputed is not None:
            needed = precomputed
        else:
            needed = set()
            for item in stmt.items:
                needed |= columns_referenced(item.expr)
            for expr in stmt.group_by:
                needed |= columns_referenced(expr)
            if stmt.where is not None:
                needed |= columns_referenced(stmt.where)
            if stmt.having is not None:
                needed |= columns_referenced(stmt.having)
            for order in stmt.order_by:
                needed |= columns_referenced(order.expr)
        return AggregatePlan(
            table=stmt.table,
            items=stmt.items,
            group_by=list(stmt.group_by),
            aggregates=aggregates,
            where=stmt.where,
            having=stmt.having,
            order_by=list(stmt.order_by),
            limit=stmt.limit,
            columns_needed=needed,
        )

    if stmt.having is not None:
        raise SqlAnalysisError("HAVING requires GROUP BY or aggregates")
    if precomputed is not None:
        needed = precomputed
    else:
        needed = set()
        for item in stmt.items:
            needed |= columns_referenced(item.expr)
        if stmt.where is not None:
            needed |= columns_referenced(stmt.where)
        for order in stmt.order_by:
            needed |= columns_referenced(order.expr)
    return ScanPlan(
        table=stmt.table,
        items=stmt.items,
        select_star=stmt.select_star,
        where=stmt.where,
        order_by=list(stmt.order_by),
        limit=stmt.limit,
        distinct=stmt.distinct,
        columns_needed=needed,
    )


def _has_any_aggregate(stmt: ast.Select) -> bool:
    return any(
        isinstance(node, ast.AggregateCall)
        for item in stmt.items for node in item.expr.walk()
    )


def _collect_aggregates(stmt: ast.Select) -> list[ast.AggregateCall]:
    """All distinct aggregate calls in the select list and HAVING clause."""
    seen: dict[ast.AggregateCall, None] = {}
    sources = [item.expr for item in stmt.items]
    if stmt.having is not None:
        sources.append(stmt.having)
    for expr in sources:
        for node in expr.walk():
            if isinstance(node, ast.AggregateCall):
                nested = node.arg is not None and any(
                    isinstance(descendant, ast.AggregateCall)
                    for descendant in node.arg.walk()
                )
                if nested:
                    raise SqlAnalysisError("nested aggregates are not allowed")
                seen.setdefault(node)
    return list(seen)
