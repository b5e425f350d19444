"""Query planning: classify statements and size UDTF fan-out.

The planner turns an analyzed :class:`~repro.vertica.sql.ast.Select` into
one of three physical plan shapes — plain scan, two-phase aggregate, or
UDTF fan-out — and decides the per-node instance counts for ``PARTITION BEST``
("The Vertica query planner starts many parallel instances of user-defined
functions. The amount of parallelism is dependent on resources available and
how the input table is partitioned", §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

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


def plan_select(stmt: ast.Select, resolved: "ResolvedQuery"
                ) -> ScanPlan | AggregatePlan | UdtfPlan:
    """Pick the plan shape for an analyzed SELECT.

    A pure constructor over the analyzer's binding: ``resolved`` carries
    the validated statement's projection set, alias-substituted clauses
    and aggregate list, so nothing here walks expressions or can fail.
    """
    if stmt.udtf is not None:
        return UdtfPlan(stmt.table, stmt.udtf, stmt.where,
                        resolved.columns_needed)
    if resolved.aggregates or resolved.group_by:
        return AggregatePlan(
            table=stmt.table,
            items=stmt.items,
            group_by=resolved.group_by,
            aggregates=resolved.aggregates,
            where=stmt.where,
            having=resolved.having,
            order_by=resolved.order_by,
            limit=stmt.limit,
            columns_needed=resolved.columns_needed,
        )
    items = stmt.items
    if stmt.select_star:
        items = [ast.SelectItem(ast.ColumnRef(name))
                 for name in resolved.star_columns]
    return ScanPlan(
        table=stmt.table,
        items=items,
        where=stmt.where,
        order_by=resolved.order_by,
        limit=stmt.limit,
        distinct=stmt.distinct,
        columns_needed=resolved.columns_needed,
    )
