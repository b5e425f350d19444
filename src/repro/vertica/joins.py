"""Hash equi-joins for the SQL layer: build one side once, stream the other.

Supports ``FROM a [alias] [INNER|LEFT] JOIN b [alias] ON <cond>`` where the
condition contains at least one cross-table equality (further conjuncts are
applied as residual filters).  The analyzer resolves the statement's names
and splits the condition (:class:`~repro.vertica.sql.analyzer.BoundJoin`);
this module only executes that binding.

The joined (right) input is the build side: it is gathered once through the
cluster's per-node scan sources (:meth:`VerticaCluster.gather_table`:
failover, scan slots and scan counters included), and its rows are sorted
by key code.  The left input is the probe side: :func:`join_sources` hands
the executor one source per node that probes each scanned batch with
``searchsorted`` as it streams past, so the left table is never held whole.
Rows come out in left-input order, a left row's matches in build-input
order; a LEFT join emits a left row with no surviving match once, its
right-side columns NULL.

Column naming in a joined batch: every column appears under its qualified
key (``alias.column``); columns whose bare name is unambiguous across the
two inputs also appear under the bare name, matching SQL resolution rules.
"""

from __future__ import annotations

import itertools
import math
from contextlib import closing
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.errors import ExecutionError
from repro.vertica import expressions
from repro.vertica.expressions import batch_rows, evaluate_rows
from repro.vertica.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster
    from repro.vertica.sql.analyzer import BoundJoin
    from repro.vertica.txn.epochs import Snapshot

__all__ = ["join_sources"]

Batch = dict[str, np.ndarray]


def join_sources(cluster: "VerticaCluster", stmt: ast.Select,
                 bound: "BoundJoin", snapshot: "Snapshot | None" = None,
                 ) -> list[Callable[[], Iterator[Batch]]]:
    """Build the join of ``stmt`` as the analyzer bound it, and return one
    joined-batch source per node of the left input.

    Both inputs read at the same ``snapshot`` (epochs come from one shared
    clock).  A node whose scan yields no batch yields one empty joined
    batch, so the output keeps its column types.
    """
    build = _BuildSide(cluster, stmt, bound, snapshot)

    def probe_source(source: Callable[[], Iterator[Batch]]):
        def joined() -> Iterator[Batch]:
            empty = True
            with closing(source()) as stream:
                for batch in stream:
                    empty = False
                    yield build.probe(batch)
            if empty:
                yield build.probe(cluster.typed_empty_batch(
                    stmt.table, bound.left_columns))
        return joined

    return [probe_source(source) for source in cluster.stream_table_per_node(
        stmt.table, bound.left_columns, snapshot=snapshot)]


class _BuildSide:
    """The right input, gathered once and grouped by join key.

    A key value's position among its column's sorted distinct non-NULL
    build values (-1 when NULL or absent, so NULL never matches) combines
    across the key columns into a row's key code.  ``codes`` are the build
    rows' sorted distinct codes, and a row's key id is its code's index
    there (-1: no match).  ``order`` lists the matchable build rows grouped
    by key id, in build-input order within a key: key *i*'s rows are
    ``order[first[i]:first[i] + count[i]]``.
    """

    def __init__(self, cluster: "VerticaCluster", stmt: ast.Select,
                 bound: "BoundJoin", snapshot: "Snapshot | None") -> None:
        self.bound = bound
        self.left = stmt.join.kind == "left"
        self.rows_scanned = cluster.metrics.counter("join_rows_scanned")
        self.rows_produced = cluster.metrics.counter("join_rows_produced")
        data = cluster.gather_table(stmt.join.table, bound.right_columns,
                                    snapshot=snapshot)
        # One placeholder row past the end: what an unmatched LEFT-join row
        # reads before its right-side values are nulled.
        self.null_row = batch_rows(data)
        self.data = {name: np.concatenate([arr, np.zeros(1, arr.dtype)])
                     for name, arr in data.items()}
        self.rows_scanned.add(self.null_row)
        keys = _evaluate(data, bound.right_alias,
                         [right for _, right in bound.equalities])
        self.uniques = [uniques[~expressions.is_null(uniques)] for uniques in
                        (expressions.factorize_column(v)[0] for v in keys)]
        if math.prod(map(len, self.uniques)) >= 2 ** 63:
            raise ExecutionError("join key space exceeds 64-bit codes")
        self.lookups = [dict(zip(uniques.tolist(), range(len(uniques))))
                        for uniques in self.uniques]
        codes = self._codes(keys)
        matchable = np.flatnonzero(codes >= 0)
        self.codes, ids = np.unique(codes[matchable], return_inverse=True)
        self.order = matchable[np.argsort(ids, kind="stable")]
        # A trailing zero count is what id -1 (no match) reads.
        self.count = np.append(np.bincount(ids, minlength=len(self.codes)), 0)
        self.first = np.cumsum(self.count) - self.count

    def _codes(self, keys: list[np.ndarray]) -> np.ndarray:
        """Each row's key code, -1 where a key is NULL or absent from the
        build side.  Strings, and keys compared with them, look up a dict;
        numbers search the sorted build values."""
        codes = np.zeros(len(keys[0]), dtype=np.int64)
        for values, uniques, lookup in zip(keys, self.uniques, self.lookups):
            if object in (values.dtype, uniques.dtype):
                position = np.fromiter(
                    map(lookup.get, values.tolist(), itertools.repeat(-1)),
                    dtype=np.int64, count=len(values))
            else:
                position = _find(uniques, values)
            codes = np.where((codes < 0) | (position < 0), -1,
                             codes * len(uniques) + position)
        return codes

    def probe(self, batch: Batch) -> Batch:
        """Join one left-input batch against the build side."""
        bound = self.bound
        rows = batch_rows(batch)
        ids = _find(self.codes, self._codes(_evaluate(
            batch, bound.left_alias, [left for left, _ in bound.equalities])))
        starts, counts = self.first[ids], self.count[ids]
        left_index = np.repeat(np.arange(rows), counts)
        offsets = np.cumsum(counts) - counts
        right_index = self.order[np.repeat(starts - offsets, counts)
                                 + np.arange(len(left_index))]
        if bound.residual:
            joined = self._assemble(batch, left_index, right_index)
            keep = np.ones(len(left_index), dtype=bool)
            for conj in bound.residual:
                keep &= evaluate_rows(conj, joined, len(keep)).astype(bool)
            left_index, right_index = left_index[keep], right_index[keep]
        if self.left:  # each left row left without a match, in its place
            lost = np.flatnonzero(np.bincount(left_index, minlength=rows) == 0)
            at = np.searchsorted(left_index, lost)
            left_index = np.insert(left_index, at, lost)
            right_index = np.insert(right_index, at, self.null_row)
        self.rows_scanned.add(rows)
        self.rows_produced.add(len(left_index))
        return self._assemble(batch, left_index, right_index)

    def _assemble(self, batch: Batch, left_index: np.ndarray,
                  right_index: np.ndarray) -> Batch:
        bound = self.bound
        out: Batch = {}
        for column in sorted(bound.left_columns):
            out[f"{bound.left_alias}.{column}"] = \
                np.atleast_1d(np.asarray(batch[column]))[left_index]
        unmatched = right_index == self.null_row
        for column in sorted(bound.right_columns):
            values = self.data[column][right_index]
            out[f"{bound.right_alias}.{column}"] = \
                _null_out(values, unmatched) if unmatched.any() else values
        # Unambiguous bare names resolve without qualification.
        for alias, columns in ((bound.left_alias, bound.left_columns),
                               (bound.right_alias, bound.right_columns)):
            for column in columns - bound.ambiguous:
                out[column] = out[f"{alias}.{column}"]
        return out


def _find(ordered: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's index in the sorted array ``ordered``, -1 where absent."""
    index = np.searchsorted(ordered, values)
    hit = index < len(ordered)
    hit[hit] = ordered[index[hit]] == values[hit]
    return np.where(hit, index, -1)


def _evaluate(data: Batch, alias: str,
              exprs: list[ast.Expr]) -> list[np.ndarray]:
    """Key expressions over one input's batch, bare or ``alias.``-qualified."""
    env = {name: np.atleast_1d(np.asarray(arr)) for name, arr in data.items()}
    env.update({f"{alias}.{name}": arr for name, arr in env.items()
                if "." not in name})
    rows = batch_rows(data)
    return [evaluate_rows(expr, env, rows) for expr in exprs]


def _null_out(values: np.ndarray, null_mask: np.ndarray) -> np.ndarray:
    """Null the unmatched rows of a LEFT join's right-side column."""
    out = values.astype(object if values.dtype == object else np.float64)
    out[null_mask] = None if out.dtype == object else np.nan
    return out
