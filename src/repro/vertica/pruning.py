"""Zone-map predicate pushdown.

Column blocks carry min/max zone maps (:class:`repro.storage.column
.ColumnBlock`); this module turns a WHERE clause into per-column value
ranges so scans can skip entire row groups whose zone maps exclude the
predicate — the classic columnar-store optimization Vertica applies before
any block is decompressed.

Only *conservative* constraints are extracted: top-level AND conjuncts of
the forms ``col <op> literal`` / ``literal <op> col`` with numeric
literals, plus ``col IN (...)`` (as a min/max envelope).  Anything else —
OR branches, expressions over multiple columns, string comparisons — simply
contributes no constraint, so pruning never changes results, it only skips
work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vertica.expressions import conjuncts
from repro.vertica.sql import ast

__all__ = ["ColumnRange", "extract_column_ranges"]


@dataclass
class ColumnRange:
    """A conjunctive value envelope for one column: low <= col <= high."""

    low: float | None = None
    high: float | None = None

    def tighten_low(self, value: float) -> None:
        if self.low is None or value > self.low:
            self.low = value

    def tighten_high(self, value: float) -> None:
        if self.high is None or value < self.high:
            self.high = value


def extract_column_ranges(where: ast.Expr | None) -> dict[str, ColumnRange]:
    """Derive per-column ranges from the AND-conjuncts of a WHERE clause."""
    ranges: dict[str, ColumnRange] = {}
    if where is None:
        return ranges
    for conjunct in conjuncts(where):
        _apply(conjunct, ranges)
    return ranges


def _numeric_literal(expr: ast.Expr) -> float | None:
    if isinstance(expr, ast.Literal) and isinstance(expr.value, (int, float)) \
            and not isinstance(expr.value, bool):
        return float(expr.value)
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _numeric_literal(expr.operand)
        return None if inner is None else -inner
    return None


def _bare_column(expr: ast.Expr) -> str | None:
    if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
        return expr.name
    return None


def _apply(conjunct: ast.Expr, ranges: dict[str, ColumnRange]) -> None:
    if isinstance(conjunct, ast.InList):
        column = _bare_column(conjunct.operand)
        if column is None:
            return
        values = [float(v) for v in conjunct.values
                  if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if len(values) != len(conjunct.values) or not values:
            return
        entry = ranges.setdefault(column, ColumnRange())
        entry.tighten_low(min(values))
        entry.tighten_high(max(values))
        return
    if not isinstance(conjunct, ast.BinaryOp):
        return
    op = conjunct.op
    if op not in ("=", "<", "<=", ">", ">="):
        return
    column = _bare_column(conjunct.left)
    literal = _numeric_literal(conjunct.right)
    if column is None or literal is None:
        # Try the mirrored orientation: literal <op> column.
        column = _bare_column(conjunct.right)
        literal = _numeric_literal(conjunct.left)
        if column is None or literal is None:
            return
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
    entry = ranges.setdefault(column, ColumnRange())
    if op == "=":
        entry.tighten_low(literal)
        entry.tighten_high(literal)
    elif op in ("<", "<="):
        entry.tighten_high(literal)
    else:  # > or >=
        entry.tighten_low(literal)
