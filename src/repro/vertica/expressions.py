"""Vectorized expression evaluation over column batches.

The executor hands this module a *batch*: a dict mapping column names to
1-D numpy arrays of equal length.  Expressions evaluate to numpy arrays
(broadcasting scalars), which keeps WHERE filters and projections fast enough
to process millions of rows per node — the property the in-database
prediction experiments (Figs 15/16) rely on.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import ExecutionError, SqlAnalysisError
from repro.vertica.sql import ast

__all__ = ["evaluate", "evaluate_rows", "broadcast_rows", "batch_rows",
           "apply_where", "columns_referenced", "register_scalar_function",
           "scalar_function_names", "is_null", "factorize", "factorize_column"]

_SCALAR_FUNCTIONS: dict[str, Callable[..., np.ndarray]] = {}


def register_scalar_function(name: str, fn: Callable[..., np.ndarray]) -> None:
    """Register a scalar SQL function callable with numpy array arguments."""
    _SCALAR_FUNCTIONS[name.lower()] = fn


def scalar_function_names() -> list[str]:
    return sorted(_SCALAR_FUNCTIONS)


def _with_float(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[..., np.ndarray]:
    return lambda x: fn(np.asarray(x, dtype=np.float64))


register_scalar_function("abs", np.abs)
register_scalar_function("sqrt", _with_float(np.sqrt))
register_scalar_function("exp", _with_float(np.exp))
register_scalar_function("ln", _with_float(np.log))
register_scalar_function("log", _with_float(np.log10))
register_scalar_function("floor", _with_float(np.floor))
register_scalar_function("ceil", _with_float(np.ceil))
register_scalar_function("ceiling", _with_float(np.ceil))
register_scalar_function("sign", _with_float(np.sign))
register_scalar_function("power", lambda x, y: np.power(
    np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)))
register_scalar_function("mod", lambda x, y: _null_on_zero(np.mod, x, y))
register_scalar_function("round", lambda x, d=0: np.round(
    np.asarray(x, dtype=np.float64), int(np.asarray(d).flat[0]) if np.ndim(d) else int(d)))
register_scalar_function("is_null", lambda x: is_null(x))
register_scalar_function("coalesce", lambda *xs: _coalesce(*xs))
register_scalar_function("least", lambda *xs: _fold_pairwise(np.minimum, xs))
register_scalar_function("greatest", lambda *xs: _fold_pairwise(np.maximum, xs))


def _fold_pairwise(fn: Callable, xs: tuple) -> np.ndarray:
    """``fn`` folded over the arguments; a row with any NULL argument is
    NULL, as in SQLite's scalar MIN/MAX (NaN already propagates through
    numeric arrays, so only string arguments need the mask)."""
    if not xs:
        raise SqlAnalysisError("least/greatest require at least one argument")
    result = np.asarray(xs[0])
    for candidate in map(np.asarray, xs[1:]):
        if result.dtype.kind not in "OUS" and candidate.dtype.kind not in "OUS":
            result = fn(result, candidate)
            continue
        result, candidate, nulls = np.broadcast_arrays(
            result.astype(object), candidate.astype(object),
            is_null(result) | is_null(candidate))
        folded = np.full(result.shape, None, dtype=object)
        folded[~nulls] = fn(result[~nulls], candidate[~nulls])
        result = folded
    return result


register_scalar_function("upper", lambda x: _map_values(
    x, lambda v: str(v).upper(), None, object))
register_scalar_function("lower", lambda x: _map_values(
    x, lambda v: str(v).lower(), None, object))
register_scalar_function("length", lambda x: _map_values(x, len, 0, np.int64))


def is_null(x: Any) -> np.ndarray:
    """SQL NULL mask: ``None`` in object columns, NaN in float columns."""
    arr = np.asarray(x)
    if arr.dtype == object:
        return np.equal(arr, None)
    if arr.dtype.kind == "f":
        return np.isnan(arr)
    return np.zeros(arr.shape, dtype=bool)


def factorize_column(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of ``values`` and each row's index into them.

    NULL is one value, sorted after every other.  Strings go through a
    sorted set of the distinct values and a dict lookup rather than
    ``np.unique`` over objects; other dtypes go through ``np.unique``.
    """
    if values.dtype != object:
        uniques, codes = np.unique(values, return_inverse=True)
        return uniques, codes.reshape(-1)
    items = values.tolist()
    distinct = set(items)
    ordered = sorted(distinct - {None}) + [None] * (None in distinct)
    lookup = dict(zip(ordered, range(len(ordered))))
    codes = np.fromiter(map(lookup.__getitem__, items), dtype=np.int64,
                        count=len(items))
    return np.array(ordered, dtype=object), codes


def factorize(columns: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Group rows by their values across ``columns``.

    Returns a dense group code per row and the key columns with one row per
    group.  Groups are numbered in sorted key order, the first column most
    significant and NULL last within each column.
    """
    if len(columns) == 1:
        uniques, codes = factorize_column(columns[0])
        return codes, [uniques]
    codes, groups = np.zeros(len(columns[0]), dtype=np.int64), 1
    for values in columns:
        uniques, column = factorize_column(values)
        if groups * len(uniques) >= 2 ** 62:  # renumber to stay in int64
            kept, codes = np.unique(codes, return_inverse=True)
            groups = len(kept)
        codes = codes * len(uniques) + column
        groups *= len(uniques)
    _, first, codes = np.unique(codes, return_index=True, return_inverse=True)
    return codes.reshape(-1), [values[first] for values in columns]


def _coalesce(*xs: Any) -> np.ndarray:
    if not xs:
        raise SqlAnalysisError("coalesce() requires at least one argument")
    result = np.asarray(xs[0])
    for candidate in xs[1:]:
        mask = is_null(result)
        if not mask.any():
            break
        result = np.where(mask, np.asarray(candidate), result)
    return result


def _map_values(x: Any, fn: Callable[[Any], Any], null: Any,
                dtype: Any) -> np.ndarray:
    """``fn`` of each value of ``x``, ``null`` where it is NULL, in ``x``'s
    shape (a literal argument stays a 0-d array)."""
    arr = np.asarray(x)
    values = [null if missing else fn(v)
              for v, missing in zip(arr.astype(object).flat, is_null(arr).flat)]
    return np.asarray(values, dtype=dtype).reshape(arr.shape)


def columns_referenced(expr: ast.Expr) -> set[str]:
    """Set of column keys (``name`` or ``qualifier.name``) an expression reads."""
    return {node.key for node in expr.walk() if isinstance(node, ast.ColumnRef)}


def conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    """The operands of ``expr``'s top-level ``AND`` chain, left to right."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def evaluate(expr: ast.Expr, batch: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate ``expr`` over ``batch``; returns an array broadcast to the
    batch's row count (scalar literals become 0-d arrays the caller may
    broadcast)."""
    if isinstance(expr, ast.Literal):
        return np.asarray(expr.value) if expr.value is not None else np.asarray(np.nan)
    if isinstance(expr, ast.ColumnRef):
        try:
            return batch[expr.key]
        except KeyError:
            known = sorted(batch)
            raise SqlAnalysisError(
                f"unknown column {expr.key!r}; available: {known}"
            ) from None
    if isinstance(expr, ast.UnaryOp):
        operand = evaluate(expr.operand, batch)
        if expr.op == "-":
            return -np.asarray(operand)
        if expr.op == "NOT":
            return ~np.asarray(operand, dtype=bool)
        raise SqlAnalysisError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinaryOp):
        return _binary(expr, batch)
    if isinstance(expr, ast.FunctionCall):
        try:
            fn = _SCALAR_FUNCTIONS[expr.name]
        except KeyError:
            raise SqlAnalysisError(f"unknown function {expr.name!r}") from None
        args = [evaluate(arg, batch) for arg in expr.args]
        return np.asarray(fn(*args))
    if isinstance(expr, ast.InList):
        operand = np.atleast_1d(np.asarray(evaluate(expr.operand, batch)))
        result = np.zeros(operand.shape, dtype=bool)
        for value in expr.values:
            if value is None:
                continue
            result |= np.asarray(_compare(operand, value, "eq"))
        return result
    if isinstance(expr, ast.LikeMatch):
        operand = np.atleast_1d(
            np.asarray(evaluate(expr.operand, batch), dtype=object))
        regex = _like_to_regex(expr.pattern)
        return np.asarray(
            [v is not None and regex.fullmatch(str(v)) is not None
             for v in operand],
            dtype=bool,
        )
    if isinstance(expr, ast.AggregateCall):
        raise SqlAnalysisError(
            f"aggregate {expr.name} used outside an aggregation context"
        )
    if isinstance(expr, ast.Star):
        raise SqlAnalysisError("'*' is not a scalar expression")
    raise SqlAnalysisError(f"cannot evaluate expression node {type(expr).__name__}")


def batch_rows(batch: Mapping[str, np.ndarray]) -> int:
    """Row count of a batch (0 for a batch with no columns)."""
    for arr in batch.values():
        return len(np.atleast_1d(arr))
    return 0


def broadcast_rows(value: np.ndarray, rows: int) -> np.ndarray:
    """``value`` as one entry per row: a length-1 result is repeated."""
    value = np.atleast_1d(value)
    if len(value) == rows:
        return value
    if len(value) == 1:
        return np.broadcast_to(value, (rows,)).copy()
    raise ExecutionError(f"cannot broadcast length {len(value)} to {rows} rows")


def evaluate_rows(expr: ast.Expr, batch: Mapping[str, np.ndarray],
                  rows: int) -> np.ndarray:
    """``expr`` over ``batch`` as one value per row."""
    return broadcast_rows(np.asarray(evaluate(expr, batch)), rows)


def apply_where(where: ast.Expr | None,
                batch: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Filter one batch by a WHERE predicate (pass-through when absent)."""
    if where is None:
        return batch
    mask = evaluate_rows(where, batch, batch_rows(batch)).astype(bool)
    return {name: arr[mask] for name, arr in batch.items()}


@lru_cache(maxsize=256)
def _like_to_regex(pattern: str) -> "re.Pattern":
    """Translate a SQL LIKE pattern (%% any run, _ one char) to a regex."""
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), flags=re.DOTALL)


def _binary(expr: ast.BinaryOp, batch: Mapping[str, np.ndarray]) -> np.ndarray:
    op = expr.op
    if op in ("AND", "OR"):
        left = np.asarray(evaluate(expr.left, batch), dtype=bool)
        right = np.asarray(evaluate(expr.right, batch), dtype=bool)
        return left & right if op == "AND" else left | right
    left = evaluate(expr.left, batch)
    right = evaluate(expr.right, batch)
    if op == "||":
        l = np.atleast_1d(np.asarray(left, dtype=object))
        r = np.atleast_1d(np.asarray(right, dtype=object))
        l, r = np.broadcast_arrays(l, r)
        return np.asarray([f"{a}{b}" for a, b in zip(l, r)], dtype=object)
    if op == "+":
        return np.add(left, right)
    if op == "-":
        return np.subtract(left, right)
    if op == "*":
        return np.multiply(left, right)
    if op == "/":
        return _null_on_zero(np.divide, np.asarray(left, dtype=np.float64), right)
    if op == "%":
        return _null_on_zero(np.mod, left, right)
    if op == "=":
        return _compare(left, right, "eq")
    if op == "<>":
        return ~_compare(left, right, "eq")
    if op == "<":
        return _compare(left, right, "lt")
    if op == "<=":
        return _compare(left, right, "le")
    if op == ">":
        return _compare(left, right, "gt")
    if op == ">=":
        return _compare(left, right, "ge")
    raise SqlAnalysisError(f"unknown operator {op!r}")


def _null_on_zero(fn: Callable, left: Any, right: Any) -> np.ndarray:
    """``fn(left, right)``, NULL (NaN) where the divisor is zero, as in
    SQLite.  Only a zero divisor turns an INTEGER result FLOAT."""
    zero = np.asarray(right) == 0
    if not zero.any():
        return fn(left, right)
    left, right, zero = np.broadcast_arrays(
        np.asarray(left, dtype=np.float64), np.asarray(right, dtype=np.float64),
        zero)
    return fn(left, right, out=np.full(zero.shape, np.nan), where=~zero)


_COMPARATORS = {
    "eq": np.equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}


def _compare(left: Any, right: Any, kind: str) -> np.ndarray:
    l, r = np.asarray(left), np.asarray(right)
    if l.dtype == object or r.dtype == object:
        l = np.atleast_1d(l.astype(object))
        r = np.atleast_1d(r.astype(object))
        l, r = np.broadcast_arrays(l, r)
        py = {"eq": lambda a, b: a == b, "lt": lambda a, b: a < b,
              "le": lambda a, b: a <= b, "gt": lambda a, b: a > b,
              "ge": lambda a, b: a >= b}[kind]
        return np.asarray([
            False if a is None or b is None else py(a, b) for a, b in zip(l, r)
        ], dtype=bool)
    return np.asarray(_COMPARATORS[kind](l, r), dtype=bool)
