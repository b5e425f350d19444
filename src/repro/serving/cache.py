"""Prepared-statement plan cache and epoch-keyed result cache.

**Plan cache.**  Keyed on whitespace-normalized SQL text: the first
execution parses and semantically analyzes the statement; later executions
reuse the AST and the :class:`~repro.vertica.sql.analyzer.ResolvedQuery`
and skip both phases.  Entries remember the catalog's DDL version at
analysis time — a CREATE/DROP TABLE or UDTF registration invalidates every
prepared plan, because the analysis may be bound to stale schema.  The
executor reads the AST and its ``ResolvedQuery`` without modifying either,
so every session executes the cached objects themselves, concurrently.

**Result cache.**  Keyed on ``(plan fingerprint, user, referenced-table
invalidation tokens, model-catalog version)``.  A table's invalidation
token (:meth:`~repro.vertica.table.Table.invalidation_token`) changes on
every committed INSERT/DELETE/UPDATE and on every Tuple Mover purge, and
mutators bump it *before* the epoch clock publishes the commit — so a
lookup whose key still matches is guaranteed to observe a table state
bit-identical to the one the entry was stored under.  Storing uses a
read-twice guard: the key is computed before execution and again after,
and the entry is stored only if the two agree (a mutation that lands
mid-execution simply makes the result uncacheable).

Only plain ``SELECT`` statements are cacheable; ``AT EPOCH`` queries
bypass the cache entirely (they name their own snapshot — the latest-state
token key does not describe them), and UDTF calls are cacheable only when
the registered function declares ``cacheable = True``
(``ExportToDistributedR`` does not: replaying its summary rows would skip
the actual transfer).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.vertica.executor import ResultSet
from repro.vertica.models import R_MODELS_TABLE_NAME
from repro.vertica.sql import ast
from repro.vertica.sql.parser import parse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster
    from repro.vertica.sql.analyzer import ResolvedQuery

__all__ = [
    "PlanCache",
    "PreparedStatement",
    "ResultCache",
    "is_cacheable",
    "result_cache_key",
]


def _strip_comments(sql: str) -> str:
    """Remove ``--`` line comments without touching string literals.

    A ``--`` inside a single-quoted literal is data, not a comment, so the
    scan tracks quoting (with ``''`` escapes handled naturally: each quote
    toggles the state and both characters are kept)."""
    out: list[str] = []
    i = 0
    n = len(sql)
    in_string = False
    while i < n:
        ch = sql[i]
        if ch == "'":
            in_string = not in_string
            out.append(ch)
            i += 1
            continue
        if not in_string and sql.startswith("--", i):
            end = sql.find("\n", i)
            if end == -1:
                break
            i = end  # keep the newline: it separates surrounding tokens
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def normalize_sql(sql: str) -> str:
    """Collapse whitespace and strip ``--`` comments so trivially
    reformatted or re-commented statements share one plan-cache entry."""
    return " ".join(_strip_comments(sql).split())


@dataclass(frozen=True)
class PreparedStatement:
    """One analyzed statement, shared by every session that runs its text."""

    sql: str
    fingerprint: str
    statement: ast.Statement = field(compare=False)
    resolved: "ResolvedQuery" = field(compare=False)
    ddl_version: int = field(compare=False)


class PlanCache:
    """LRU cache of :class:`PreparedStatement` keyed on normalized SQL."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, PreparedStatement]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def prepare(self, cluster: "VerticaCluster", sql: str) -> PreparedStatement:
        """The prepared form of ``sql``, analyzing at most once per text.

        Entries analyzed under an older catalog DDL version are discarded
        and re-analyzed, so schema changes can never serve a plan bound to
        a dropped table or a stale UDTF signature.
        """
        norm = normalize_sql(sql)
        ddl = cluster.catalog.ddl_version()
        with self._lock:
            entry = self._entries.get(norm)
            if entry is not None and entry.ddl_version == ddl:
                self._entries.move_to_end(norm)
            elif entry is not None:
                del self._entries[norm]
                entry = None
        if entry is not None:
            cluster.metrics.counter("plan_cache_hits").add()
            return entry
        # Parse + analyze outside the cache lock: analysis reads catalog
        # state and may install standard functions.
        statement = parse(norm)
        resolved = cluster.executor.analyze(statement)
        entry = PreparedStatement(
            sql=norm,
            fingerprint=hashlib.sha256(norm.encode()).hexdigest()[:16],
            statement=statement,
            resolved=resolved,
            ddl_version=ddl,
        )
        with self._lock:
            self._entries[norm] = entry
            self._entries.move_to_end(norm)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        cluster.metrics.counter("plan_cache_misses").add()
        return entry


def _referenced_tables(statement: ast.Select) -> list[str]:
    names = []
    if statement.table is not None:
        names.append(statement.table)
    if statement.join is not None:
        names.append(statement.join.table)
    return names


def is_cacheable(cluster: "VerticaCluster", statement: ast.Statement) -> bool:
    """Whether ``statement``'s result may be served from the result cache."""
    if not isinstance(statement, ast.Select):
        return False
    if statement.at_epoch is not None:
        # AT EPOCH names its own snapshot; the latest-state token key does
        # not describe what it reads (and mergeout purges rewrite exactly
        # the history it depends on).
        return False
    if statement.udtf is not None:
        if not cluster.catalog.has_udtf(statement.udtf.name):
            return False
        if not cluster.catalog.get_udtf(statement.udtf.name).cacheable:
            return False
    return True


def result_cache_key(
    cluster: "VerticaCluster",
    prepared: PreparedStatement,
    user: str,
) -> tuple:
    """The epoch-keyed cache key for one execution of ``prepared``.

    Combines the plan fingerprint and user with the invalidation token of
    every referenced table, plus the model-catalog version for statements
    that read ``R_Models`` or call a transform function (predictors load
    models by name; a redeploy under the same name must miss).

    ``WITHIN`` queries additionally key on the AQP-catalog version and the
    invalidation tokens of every sample stored on the referenced table: a
    CREATE/DROP SAMPLE or a refresh fold changes which sample answers (or
    whether the query falls back to exact), so a cached approximate result
    must miss.  The base-table token stays in the key too, covering the
    exact-fallback path.
    """
    statement = prepared.statement
    assert isinstance(statement, ast.Select)
    tokens: list[tuple[int, int, int]] = []
    models_version: int | None = None
    aqp_version: int | None = None
    for name in _referenced_tables(statement):
        if name.lower() == R_MODELS_TABLE_NAME.lower():
            models_version = cluster.r_models.version()
        else:
            tokens.append(cluster.catalog.get_table(name).invalidation_token())
    if statement.udtf is not None:
        models_version = cluster.r_models.version()
    if statement.within_error is not None and statement.table is not None:
        aqp_version = cluster.aqp.version()
        for record in cluster.aqp.samples_on(statement.table):
            if cluster.catalog.has_table(record.name):
                tokens.append(
                    cluster.catalog.get_table(record.name).invalidation_token())
    return (prepared.fingerprint, user, tuple(tokens), models_version,
            aqp_version)


def _result_nbytes(result: ResultSet) -> int:
    return sum(arr.nbytes for arr in result.as_arrays().values())


def _copy_result(result: ResultSet) -> ResultSet:
    return ResultSet(
        result.column_names,
        {name: arr.copy() for name, arr in result.as_arrays().items()},
    )


class ResultCache:
    """Bounded LRU of materialized SELECT results, epoch-token keyed.

    Every stored and served result is a private copy, so callers can never
    corrupt a cached entry (or each other) by mutating returned arrays.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024,
                 max_entries: int = 512) -> None:
        if max_bytes < 1 or max_entries < 1:
            raise ValueError("result cache bounds must be >= 1")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, ResultSet]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def lookup(self, key: tuple) -> ResultSet | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
        return _copy_result(entry)

    def store(self, key: tuple, result: ResultSet) -> None:
        """Insert a copy of ``result``; oversize results are not cached."""
        nbytes = _result_nbytes(result)
        if nbytes > self.max_bytes:
            return
        entry = _copy_result(result)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= _result_nbytes(old)
            self._entries[key] = entry
            self._bytes += nbytes
            while (self._bytes > self.max_bytes
                   or len(self._entries) > self.max_entries):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= _result_nbytes(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
