"""Static semantic analysis for the SQL front-end.

This pass runs between :func:`repro.vertica.sql.parser.parse` and the
executor for *every* statement.  It performs the analyze half of the
analyze→plan split described for Vertica's optimizer pipeline:

* **name resolution** (``SA1xx``) — tables, columns, scalar functions,
  transform functions, and ``R_Models`` references are bound against the
  catalog before anything executes;
* **type checking** (``SA2xx``) — comparisons, arithmetic, aggregate
  argument types, UDTF parameter arity/types, ``PARTITION BY`` key
  validity, INSERT/UPDATE value compatibility;
* **scope checking** (``SA3xx``) — alias resolution, ambiguous columns in
  joins, aggregates mixed with non-grouped columns, structurally invalid
  clause combinations, join conditions without a cross-table equality;
* **warnings** (``SA4xx``) — statically detectable smells that still
  execute (predicates comparing values of incompatible encodings).

The result is a :class:`ResolvedQuery` — bound tables, column types, the
UDTF signature, the column set each plan shape reads, the alias-substituted
GROUP BY / HAVING / ORDER BY, the aggregate list and the :class:`BoundJoin`
— and this module is the only code that resolves names or validates
statement shape: the planner, executor, join operator and mutation engine
execute that binding and never consult the catalog for names.

Every diagnostic carries the source offset of the token that caused it
(threaded from the lexer through ``ast`` node positions), so errors point
at the query text instead of surfacing mid-execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol

from repro.errors import (
    SemanticError,
    SemanticParameterError,
    SemanticResolutionError,
    StorageError,
)
from repro.storage.encoding import SqlType
from repro.vertica import expressions
from repro.vertica.models import R_MODELS_COLUMN_TYPES, R_MODELS_TABLE_NAME
from repro.vertica.sql import ast
from repro.vertica.udtf import UdtfSignature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster

__all__ = [
    "Diagnostic",
    "ResolvedQuery",
    "BoundTable",
    "BoundJoin",
    "SchemaProvider",
    "ClusterProvider",
    "LenientProvider",
    "SA_CODES",
    "analyze",
    "check",
    "raise_for_diagnostics",
    "sa_codes_markdown_table",
]


# ---------------------------------------------------------------------------
# Diagnostic model
# ---------------------------------------------------------------------------

#: Every diagnostic code the analyzer can emit, with its meaning.  The docs
#: table in ``docs/sql_reference.md`` and the exhaustiveness check in
#: ``tests/test_sql_analyzer.py`` are both generated from this registry.
SA_CODES: dict[str, str] = {
    # -- SA1xx: name resolution -----------------------------------------
    "SA101": "unknown table in FROM / INSERT / UPDATE / DELETE / DROP",
    "SA102": "unknown column reference",
    "SA103": "unknown scalar function",
    "SA104": "unknown transform function (UDTF)",
    "SA105": "UDTF 'model' parameter names a model that is not deployed",
    "SA106": "unknown table qualifier (alias) on a column reference",
    "SA107": "R_Models is read-only: INSERT / UPDATE / DELETE rejected",
    "SA108": "R_Models cannot participate in joins",
    "SA109": "REFRESH MODEL names a model that is not deployed",
    "SA110": "DROP SAMPLE names a sample that is not registered",
    # -- SA2xx: type checking -------------------------------------------
    "SA201": "comparison / IN / LIKE over incomparable types",
    "SA202": "arithmetic or numeric function over a non-numeric operand",
    "SA203": "invalid aggregate argument (SUM/AVG over VARCHAR, DISTINCT MIN/MAX)",
    "SA204": "function called with the wrong number or type of arguments",
    "SA205": "missing or invalid USING PARAMETERS entry for a UDTF",
    "SA206": "PARTITION BY key is not a scalar expression",
    "SA207": "WHERE / HAVING / ON predicate cannot be interpreted as a boolean",
    "SA208": "INSERT row arity does not match the table",
    "SA209": "INSERT value type does not match the column",
    "SA210": "unknown SQL type in CREATE TABLE",
    "SA211": "UPDATE assigns a value of an incompatible type",
    "SA212": "CREATE SAMPLE rate outside (0, 1]",
    "SA213": "WITHIN error bound or CONFIDENCE out of range",
    # -- SA3xx: scope checking ------------------------------------------
    "SA301": "ambiguous column reference (present on both join sides)",
    "SA302": "column must appear in GROUP BY or inside an aggregate",
    "SA303": "duplicate name in scope (join aliases, select-list output names, "
             "SET targets, column defs)",
    "SA304": "HAVING requires GROUP BY or aggregates",
    "SA305": "nested aggregates are not allowed",
    "SA306": "aggregate used in a clause that cannot evaluate it",
    "SA307": "UDTF call combined with unsupported clauses (join/GROUP/ORDER/LIMIT)",
    "SA308": "SELECT DISTINCT cannot combine with GROUP BY or aggregation",
    "SA309": "SELECT * cannot be combined with aggregation",
    "SA310": "SELECT without FROM is not supported",
    "SA311": "AT EPOCH requires a FROM over a regular table",
    "SA312": "WITHIN requires a single plain COUNT/SUM/AVG over one table",
    "SA313": "join condition has no cross-table equality",
    # -- SA4xx: warnings ------------------------------------------------
    "SA402": "predicate compares incompatible encodings (e.g. INTEGER vs fractional literal)",
}

#: Codes reported as warnings; everything else is an error.
WARNING_CODES = frozenset({"SA402"})

#: Resolution failures about *missing catalog objects*: raised as
#: :class:`SemanticResolutionError` (a ``CatalogError``) for back-compat.
_CATALOG_CODES = frozenset({"SA101", "SA104", "SA105", "SA109", "SA110"})

#: UDTF calling-convention failures historically raised at execution time:
#: raised as :class:`SemanticParameterError` (an ``ExecutionError``).
_PARAMETER_CODES = frozenset({"SA204", "SA205"})


@dataclass(frozen=True)
class Diagnostic:
    """One analysis finding: a code, a message, and a source offset."""

    code: str
    message: str
    position: int | None = None
    severity: str = "error"  # "error" | "warning"

    def render(self) -> str:
        where = f" (at offset {self.position})" if self.position is not None else ""
        return f"{self.code} {self.severity}: {self.message}{where}"


class _OpenSchema(dict):
    """Marker mapping: the table is accepted but its columns are unknown.

    Returned by :class:`LenientProvider` so schema-less (lint) analysis can
    bind any table without emitting resolution diagnostics for its columns.
    """


#: Singleton open schema for lenient providers.
OPEN_SCHEMA: Mapping[str, SqlType] = _OpenSchema()


@dataclass(frozen=True)
class BoundTable:
    """One table bound during analysis (base table or the R_Models virtual)."""

    name: str
    alias: str
    columns: Mapping[str, SqlType]
    virtual: bool = False  # True for R_Models

    @property
    def open(self) -> bool:
        """True when the table's column set is unknown (lint mode)."""
        return isinstance(self.columns, _OpenSchema)


@dataclass(frozen=True)
class BoundJoin:
    """A SELECT's join, bound: what ``joins.join_sources`` executes.

    ``left_columns`` / ``right_columns`` are the bare column names each
    input must scan (every column under ``SELECT *``).  ``equalities`` are
    the cross-table ``=`` conjuncts of ``ON`` as ``(left, right)`` pairs
    oriented left-input-first; ``residual`` holds its other conjuncts.
    ``ambiguous`` names exist on both inputs and are reachable only
    qualified.
    """

    left_alias: str
    right_alias: str
    left_columns: frozenset[str]
    right_columns: frozenset[str]
    equalities: tuple[tuple[ast.Expr, ast.Expr], ...]
    residual: tuple[ast.Expr, ...]
    ambiguous: frozenset[str]


@dataclass
class ResolvedQuery:
    """The resolved, typed annotation of one analyzed statement.

    ``column_types`` maps every batch key the statement may evaluate
    (bare names; ``alias.name`` for joins) to its SQL type.
    ``columns_needed`` is the set of batch keys the statement reads;
    ``output_types`` maps select-item output names to inferred types
    (``None`` = statically unknown) and ``star_columns`` lists what
    ``SELECT *`` expands to (qualified keys over a join).  ``group_by`` /
    ``having`` / ``order_by`` are the SELECT's clauses with select-list
    aliases substituted, ``aggregates`` the distinct aggregate calls of
    the select list and HAVING, ``join`` the bound join.  ``create_types``
    carries the resolved column types of a ``CREATE TABLE``.  Later stages
    read these and the statement itself, and modify neither.
    """

    statement: ast.Statement
    tables: list[BoundTable] = field(default_factory=list)
    column_types: dict[str, SqlType] = field(default_factory=dict)
    output_types: dict[str, SqlType | None] = field(default_factory=dict)
    columns_needed: set[str] = field(default_factory=set)
    star_columns: tuple[str, ...] = ()
    group_by: list[ast.Expr] = field(default_factory=list)
    having: ast.Expr | None = None
    order_by: list[ast.OrderItem] = field(default_factory=list)
    aggregates: list[ast.AggregateCall] = field(default_factory=list)
    join: BoundJoin | None = None
    udtf_signature: UdtfSignature | None = None
    create_types: list[SqlType] | None = None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------------------
# Schema providers: what the analyzer binds names against
# ---------------------------------------------------------------------------


class SchemaProvider(Protocol):
    """Catalog facts the analyzer needs; ``None`` answers mean "unknown,
    skip the corresponding checks" so the same pass runs both against a
    live cluster and schema-less (lint mode)."""

    def table_types(self, name: str) -> Mapping[str, SqlType] | None:
        """Column name → type, or ``None`` when the table is unknown."""
        ...

    def udtf_signature(self, name: str) -> UdtfSignature | None:
        """Signature of a registered UDTF, ``None`` when unregistered."""
        ...

    def scalar_functions(self) -> frozenset[str] | None:
        """Registered scalar function names, ``None`` to skip the check."""
        ...

    def model_exists(self, name: str) -> bool | None:
        """Whether a model is deployed, ``None`` when undeterminable."""
        ...

    def sample_exists(self, name: str) -> bool | None:
        """Whether an AQP sample is registered, ``None`` when undeterminable."""
        ...


class ClusterProvider:
    """Bind against a live cluster's catalog, R_Models, and UDTF registry."""

    def __init__(self, cluster: "VerticaCluster") -> None:
        self._cluster = cluster

    def table_types(self, name: str) -> Mapping[str, SqlType] | None:
        if name.lower() == R_MODELS_TABLE_NAME:
            return R_MODELS_COLUMN_TYPES
        if not self._cluster.catalog.has_table(name):
            return None
        return self._cluster.catalog.table_types(name)

    def udtf_signature(self, name: str) -> UdtfSignature | None:
        if not self._cluster.catalog.has_udtf(name):
            return None
        return self._cluster.catalog.udtf_signature(name)

    def scalar_functions(self) -> frozenset[str] | None:
        return frozenset(expressions.scalar_function_names())

    def model_exists(self, name: str) -> bool | None:
        return self._cluster.r_models.exists(name)

    def sample_exists(self, name: str) -> bool | None:
        return self._cluster.aqp.exists(name)


class LenientProvider:
    """Schema-less provider for lint mode: every name resolves, every
    signature is permissive, so only structural/scope rules fire."""

    def table_types(self, name: str) -> Mapping[str, SqlType] | None:
        if name.lower() == R_MODELS_TABLE_NAME:
            return R_MODELS_COLUMN_TYPES
        return OPEN_SCHEMA

    def udtf_signature(self, name: str) -> UdtfSignature | None:
        return UdtfSignature()

    def scalar_functions(self) -> frozenset[str] | None:
        return None

    def model_exists(self, name: str) -> bool | None:
        return None

    def sample_exists(self, name: str) -> bool | None:
        return None


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def analyze(
    stmt: ast.Statement,
    provider: SchemaProvider,
    *,
    execution: bool = True,
) -> ResolvedQuery:
    """Analyze one parsed statement; never raises, collects diagnostics.

    ``execution=False`` (EXPLAIN) skips checks that only matter when the
    query will actually run — currently model existence (``SA105``), so a
    plan can be explained for a model that is not deployed yet.
    """
    return _Analyzer(provider, execution=execution).run(stmt)


def check(
    stmt: ast.Statement,
    provider: SchemaProvider,
    *,
    execution: bool = True,
) -> ResolvedQuery:
    """Analyze and raise a typed :class:`SemanticError` on the first error."""
    resolved = analyze(stmt, provider, execution=execution)
    raise_for_diagnostics(resolved)
    return resolved


def raise_for_diagnostics(resolved: ResolvedQuery) -> None:
    """Raise the typed error matching ``resolved``'s first error diagnostic.

    Resolution failures about missing catalog objects raise
    :class:`SemanticResolutionError` (also a ``CatalogError``); UDTF
    calling-convention failures raise :class:`SemanticParameterError` (also
    an ``ExecutionError``); everything else raises :class:`SemanticError`.
    All three are ``SqlAnalysisError`` subclasses.
    """
    errors = resolved.errors
    if not errors:
        return
    first = errors[0]
    if first.code in _CATALOG_CODES:
        cls: type[SemanticError] = SemanticResolutionError
    elif first.code in _PARAMETER_CODES:
        cls = SemanticParameterError
    else:
        cls = SemanticError
    raise cls(
        f"{first.code}: {first.message}",
        diagnostics=tuple(resolved.diagnostics),
        position=first.position,
    )


def sa_codes_markdown_table() -> str:
    """Markdown table of every diagnostic code (embedded in the docs)."""
    lines = ["| Code | Severity | Meaning |", "| --- | --- | --- |"]
    for code in sorted(SA_CODES):
        severity = "warning" if code in WARNING_CODES else "error"
        lines.append(f"| `{code}` | {severity} | {SA_CODES[code]} |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The analysis pass
# ---------------------------------------------------------------------------

_NUMERIC_TYPES = frozenset({SqlType.INTEGER, SqlType.FLOAT, SqlType.BOOLEAN})

#: Built-in scalar function arities: name -> (min_args, max_args or None).
_SCALAR_ARITY: dict[str, tuple[int, int | None]] = {
    "abs": (1, 1), "sqrt": (1, 1), "exp": (1, 1), "ln": (1, 1),
    "log": (1, 1), "floor": (1, 1), "ceil": (1, 1), "ceiling": (1, 1),
    "sign": (1, 1), "power": (2, 2), "mod": (2, 2), "round": (1, 2),
    "is_null": (1, 1), "coalesce": (1, None), "least": (1, None),
    "greatest": (1, None), "upper": (1, 1), "lower": (1, 1), "length": (1, 1),
}

#: Built-in scalar functions that coerce their arguments to float64 —
#: a VARCHAR argument fails at runtime, so it is a static type error.
_NUMERIC_FUNCTIONS = frozenset({
    "abs", "sqrt", "exp", "ln", "log", "floor", "ceil", "ceiling", "sign",
    "power", "mod", "round",
})

#: Built-in scalar function result types (None = follows the argument).
_FUNCTION_RESULTS: dict[str, SqlType | None] = {
    "sqrt": SqlType.FLOAT, "exp": SqlType.FLOAT, "ln": SqlType.FLOAT,
    "log": SqlType.FLOAT, "floor": SqlType.FLOAT, "ceil": SqlType.FLOAT,
    "ceiling": SqlType.FLOAT, "sign": SqlType.FLOAT, "power": SqlType.FLOAT,
    "round": SqlType.FLOAT, "is_null": SqlType.BOOLEAN,
    "upper": SqlType.VARCHAR, "lower": SqlType.VARCHAR,
    "length": SqlType.INTEGER,
    "abs": None, "mod": None, "coalesce": None, "least": None,
    "greatest": None,
}


class _Scope:
    """Name → type bindings for one statement's FROM clause."""

    def __init__(self, tables: list[BoundTable], joined: bool) -> None:
        self.tables = tables
        self.joined = joined
        self.open = any(bound.open for bound in tables)
        self.types: dict[str, SqlType] = {}
        self.ambiguous: set[str] = set()
        if joined:
            counts: dict[str, int] = {}
            for bound in tables:
                for name, sql_type in bound.columns.items():
                    self.types[f"{bound.alias}.{name}"] = sql_type
                    counts[name] = counts.get(name, 0) + 1
                    self.types.setdefault(name, sql_type)
            self.ambiguous = {name for name, n in counts.items() if n > 1}
            for name in self.ambiguous:
                self.types.pop(name, None)
        else:
            for bound in tables:
                self.types.update(bound.columns)

    def side_for(self, qualifier: str) -> BoundTable | None:
        for bound in self.tables:
            if bound.alias == qualifier:
                return bound
        return None


class _Analyzer:
    def __init__(self, provider: SchemaProvider, execution: bool = True) -> None:
        self.provider = provider
        self.execution = execution
        self.out: list[Diagnostic] = []
        # Batch keys of every column reference resolved so far, and the
        # bare names among them per join input alias.
        self.needed: set[str] = set()
        self.side_columns: dict[str, set[str]] = {}

    # -- diagnostics plumbing ---------------------------------------------

    def emit(self, code: str, message: str, position: int | None) -> None:
        severity = "warning" if code in WARNING_CODES else "error"
        self.out.append(Diagnostic(code, message, position, severity))

    # -- statement dispatch -----------------------------------------------

    def run(self, stmt: ast.Statement) -> ResolvedQuery:
        if isinstance(stmt, (ast.Explain, ast.Profile)):
            # EXPLAIN never executes: relax execution-only checks.
            if isinstance(stmt, ast.Explain):
                self.execution = False
            inner = self.run(stmt.query)
            inner.statement = stmt
            return inner
        resolved = ResolvedQuery(statement=stmt, diagnostics=self.out)
        if isinstance(stmt, ast.Select):
            self._select(stmt, resolved)
        elif isinstance(stmt, ast.CreateTable):
            self._create_table(stmt, resolved)
        elif isinstance(stmt, ast.Insert):
            self._insert(stmt, resolved)
        elif isinstance(stmt, ast.Delete):
            self._delete(stmt, resolved)
        elif isinstance(stmt, ast.Update):
            self._update(stmt, resolved)
        elif isinstance(stmt, ast.DropTable):
            self._drop_table(stmt, resolved)
        elif isinstance(stmt, ast.RefreshModel):
            self._refresh_model(stmt, resolved)
        elif isinstance(stmt, ast.CreateSample):
            self._create_sample(stmt, resolved)
        elif isinstance(stmt, ast.DropSample):
            self._drop_sample(stmt)
        # ShowSamples carries no names to resolve.
        return resolved

    # -- table binding -----------------------------------------------------

    def _bind_table(self, name: str, alias: str | None,
                    position: int | None) -> BoundTable | None:
        columns = self.provider.table_types(name)
        if columns is None:
            self.emit("SA101", f"table {name!r} does not exist", position)
            return None
        return BoundTable(
            name=name,
            alias=alias or name,
            columns=columns,
            virtual=name.lower() == R_MODELS_TABLE_NAME,
        )

    # -- SELECT ------------------------------------------------------------

    def _select(self, stmt: ast.Select, resolved: ResolvedQuery) -> None:
        if stmt.table is None:
            if stmt.at_epoch is not None:
                self.emit("SA311",
                          "AT EPOCH requires a FROM over a regular table", None)
            else:
                self.emit("SA310", "SELECT without FROM is not supported", None)
            return

        if stmt.within_error is not None:
            self._check_within(stmt)

        left = self._bind_table(stmt.table, stmt.table_alias, stmt.table_position)
        right: BoundTable | None = None
        if stmt.join is not None:
            if (left is not None and left.virtual) or \
                    stmt.join.table.lower() == R_MODELS_TABLE_NAME:
                self.emit("SA108", "R_Models cannot participate in joins",
                          stmt.join.table_position)
                return
            right = self._bind_table(stmt.join.table, stmt.join.alias,
                                     stmt.join.table_position)
            if left is not None and right is not None and left.alias == right.alias:
                self.emit(
                    "SA303",
                    f"both join inputs are named {left.alias!r}; use distinct aliases",
                    stmt.join.table_position,
                )
                return
        if left is None or (stmt.join is not None and right is None):
            return  # unknown table: suppress cascading column diagnostics

        if left.virtual and stmt.at_epoch is not None:
            self.emit("SA311",
                      "AT EPOCH requires a FROM over a regular table", None)

        joined = stmt.join is not None
        tables = [left] + ([right] if right is not None else [])
        scope = _Scope(tables, joined)
        resolved.tables = tables
        resolved.column_types = dict(scope.types)

        if stmt.udtf is not None:
            self._udtf_select(stmt, scope, resolved)
            return

        # Alias substitution for GROUP BY / HAVING / ORDER BY: a real table
        # column of the same name wins over an alias.
        alias_map = {
            item.alias: item.expr for item in stmt.items if item.alias is not None
        }
        real_columns = set()
        for bound in tables:
            real_columns |= set(bound.columns)
        group_by = [self._substitute(e, alias_map, real_columns)
                    for e in stmt.group_by]
        having = (None if stmt.having is None
                  else self._substitute(stmt.having, alias_map, real_columns))
        order_by = [
            ast.OrderItem(self._substitute(o.expr, alias_map, real_columns),
                          o.ascending)
            for o in stmt.order_by
        ]
        order_exprs = [order.expr for order in order_by]

        aggregates = self._collect_aggregates(stmt.items, having)
        grouped = bool(aggregates) or bool(group_by)

        if grouped:
            if stmt.select_star:
                self.emit("SA309",
                          "SELECT * cannot be combined with aggregation", None)
            if stmt.distinct:
                self.emit("SA308",
                          "SELECT DISTINCT cannot combine with GROUP BY", None)
        elif stmt.having is not None:
            self.emit("SA304", "HAVING requires GROUP BY or aggregates", None)

        # Resolve and type-check every clause.
        for item in stmt.items:
            item_type = self._infer(item.expr, scope, aggregates_ok=True)
            if item.output_name in resolved.output_types:
                # Results are keyed by output name: the later item would
                # silently overwrite the earlier one.
                self.emit(
                    "SA303",
                    f"duplicate output name {item.output_name!r} in the "
                    "select list; alias one of them",
                    item.expr.position,
                )
            resolved.output_types[item.output_name] = item_type
        if stmt.select_star:
            resolved.star_columns = tuple(
                f"{bound.alias}.{name}" if joined else name
                for bound in tables for name in bound.columns)
            self.needed.update(resolved.star_columns)
        if stmt.where is not None:
            self._check_predicate(stmt.where, scope, "WHERE")
        for expr in group_by:
            self._forbid_aggregates(expr, "GROUP BY")
            self._infer(expr, scope, aggregates_ok=False, report_aggregates=False)
        if having is not None:
            self._check_predicate(having, scope, "HAVING", aggregates_ok=True)
        for expr in order_exprs:
            self._infer(expr, scope, aggregates_ok=True)

        if grouped:
            allowed = set(aggregates)
            for expr in order_exprs:
                for node in expr.walk():
                    if isinstance(node, ast.AggregateCall) and node not in allowed:
                        self.emit(
                            "SA306",
                            f"aggregate {node} in ORDER BY must also appear in "
                            "the select list or HAVING",
                            node.position,
                        )
            group_set = list(group_by)
            for expr in [item.expr for item in stmt.items] + order_exprs \
                    + ([having] if having is not None else []):
                self._check_grouped(expr, group_set)
        else:
            for expr in order_exprs:
                self._forbid_aggregates(expr, "ORDER BY")

        if stmt.join is not None:
            resolved.join = self._bind_join(stmt, stmt.join, scope)

        resolved.columns_needed = self.needed
        resolved.group_by = group_by
        resolved.having = having
        resolved.order_by = order_by
        resolved.aggregates = aggregates

    def _udtf_select(self, stmt: ast.Select, scope: _Scope,
                     resolved: ResolvedQuery) -> None:
        udtf = stmt.udtf
        assert udtf is not None
        if stmt.join is not None:
            self.emit("SA307", "UDTF calls over joins are not supported",
                      udtf.position)
            return
        if stmt.group_by or stmt.having or stmt.order_by or stmt.limit is not None:
            self.emit(
                "SA307",
                "UDTF queries do not support GROUP BY / HAVING / ORDER BY / LIMIT",
                udtf.position,
            )
        signature = self.provider.udtf_signature(udtf.name)
        if signature is None:
            self.emit("SA104",
                      f"transform function {udtf.name!r} is not registered",
                      udtf.position)
        else:
            resolved.udtf_signature = signature
            self._check_udtf_signature(udtf, signature, scope)
        for arg in udtf.args:
            self._infer(arg, scope, aggregates_ok=False)
        if udtf.partition.expr is not None:
            self._forbid_aggregates(udtf.partition.expr, "PARTITION BY",
                                    code="SA206")
            self._infer(udtf.partition.expr, scope, aggregates_ok=False,
                        report_aggregates=False)
        if stmt.where is not None:
            self._check_predicate(stmt.where, scope, "WHERE")
        resolved.columns_needed = self.needed

    def _check_udtf_signature(self, udtf: ast.UdtfCall,
                              signature: UdtfSignature, scope: _Scope) -> None:
        count = len(udtf.args)
        if count < signature.min_args:
            noun = "argument" if signature.min_args == 1 else "arguments"
            self.emit(
                "SA204",
                f"{udtf.name} requires at least {signature.min_args} {noun}, "
                f"got {count}",
                udtf.position,
            )
        if signature.max_args is not None and count > signature.max_args:
            self.emit(
                "SA204",
                f"{udtf.name} accepts at most {signature.max_args} arguments, "
                f"got {count}",
                udtf.position,
            )
        if signature.numeric_args:
            for arg in udtf.args:
                arg_type = self._infer(arg, scope, aggregates_ok=False,
                                       report=False)
                if arg_type is SqlType.VARCHAR:
                    self.emit(
                        "SA204",
                        f"{udtf.name} requires numeric arguments; "
                        f"{arg} is VARCHAR",
                        arg.position,
                    )
        for required in sorted(signature.required_parameters):
            if required not in udtf.parameters:
                self.emit(
                    "SA205",
                    f"{udtf.name} requires a {required!r} parameter"
                    + (" naming a deployed model"
                       if required == signature.model_parameter else ""),
                    udtf.position,
                )
        if signature.known_parameters is not None:
            for name in udtf.parameters:
                if name not in signature.known_parameters:
                    self.emit(
                        "SA205",
                        f"{udtf.name} does not accept a parameter {name!r} "
                        f"(known: {sorted(signature.known_parameters)})",
                        udtf.position,
                    )
        if signature.model_parameter is not None and self.execution:
            model = udtf.parameters.get(signature.model_parameter)
            if isinstance(model, str) and model:
                exists = self.provider.model_exists(model)
                if exists is False:
                    self.emit("SA105", f"model {model!r} does not exist",
                              udtf.position)

    # -- mutations and DDL -------------------------------------------------

    def _mutation_table(self, name: str, position: int | None,
                        verb: str) -> BoundTable | None:
        if name.lower() == R_MODELS_TABLE_NAME:
            self.emit(
                "SA107",
                "R_Models is maintained through deploy.model / drop_model, "
                f"not {verb}",
                position,
            )
            return None
        return self._bind_table(name, None, position)

    def _create_table(self, stmt: ast.CreateTable,
                      resolved: ResolvedQuery) -> None:
        if stmt.name.lower() == R_MODELS_TABLE_NAME:
            self.emit("SA107",
                      f"table name {stmt.name!r} is reserved for the model catalog",
                      stmt.name_position)
            return
        seen: set[str] = set()
        types: list[SqlType] = []
        for column in stmt.columns:
            key = column.name.lower()
            if key in seen:
                self.emit("SA303",
                          f"duplicate column {column.name!r} in CREATE TABLE",
                          column.position)
            seen.add(key)
            try:
                types.append(SqlType.from_sql_name(column.type_name))
            except StorageError:
                self.emit("SA210",
                          f"unknown SQL type: {column.type_name!r}",
                          column.type_position)
        if stmt.segmentation is not None and stmt.segmentation.column is not None:
            if stmt.segmentation.column.lower() not in seen:
                self.emit(
                    "SA102",
                    f"segmentation column {stmt.segmentation.column!r} is not "
                    "a declared column",
                    stmt.segmentation_position,
                )
        if len(types) == len(stmt.columns):
            resolved.create_types = types

    def _insert(self, stmt: ast.Insert, resolved: ResolvedQuery) -> None:
        bound = self._mutation_table(stmt.table, stmt.table_position, "INSERT")
        if bound is None:
            return
        resolved.tables = [bound]
        resolved.column_types = dict(bound.columns)
        if bound.open:
            return  # schema unknown: arity/type checks need a live catalog
        width = len(bound.columns)
        column_items = list(bound.columns.items())
        for index, row in enumerate(stmt.rows):
            position = (stmt.row_positions[index]
                        if index < len(stmt.row_positions) else None)
            if len(row) != width:
                self.emit(
                    "SA208",
                    f"INSERT row {index + 1} has {len(row)} values; "
                    f"table {stmt.table!r} has {width} columns",
                    position,
                )
                continue
            for (name, sql_type), value in zip(column_items, row):
                if not _literal_assignable(value, sql_type):
                    self.emit(
                        "SA209",
                        f"INSERT value {value!r} is not assignable to "
                        f"{sql_type.value.upper()} column {name!r}",
                        position,
                    )

    def _delete(self, stmt: ast.Delete, resolved: ResolvedQuery) -> None:
        bound = self._mutation_table(stmt.table, stmt.table_position,
                                     "DELETE/UPDATE")
        if bound is None:
            return
        resolved.tables = [bound]
        resolved.column_types = dict(bound.columns)
        scope = _Scope([bound], joined=False)
        if stmt.where is not None:
            self._check_predicate(stmt.where, scope, "WHERE")
        resolved.columns_needed = self.needed

    def _update(self, stmt: ast.Update, resolved: ResolvedQuery) -> None:
        bound = self._mutation_table(stmt.table, stmt.table_position,
                                     "DELETE/UPDATE")
        if bound is None:
            return
        resolved.tables = [bound]
        resolved.column_types = dict(bound.columns)
        scope = _Scope([bound], joined=False)
        seen: set[str] = set()
        for index, (column, expr) in enumerate(stmt.assignments):
            position = (stmt.assignment_positions[index]
                        if index < len(stmt.assignment_positions) else None)
            if column in seen:
                self.emit("SA303",
                          f"UPDATE sets a column twice: {column!r}", position)
            seen.add(column)
            target_type = bound.columns.get(column)
            if target_type is None and not bound.open:
                self.emit("SA102",
                          f"table {stmt.table!r} has no column {column!r}",
                          position)
            self._forbid_aggregates(expr, "SET")
            value_type = self._infer(expr, scope, aggregates_ok=False,
                                     report_aggregates=False)
            if target_type is not None and value_type is not None and \
                    not _types_assignable(value_type, target_type):
                self.emit(
                    "SA211",
                    f"cannot assign {value_type.value.upper()} to "
                    f"{target_type.value.upper()} column {column!r}",
                    expr.position if expr.position is not None else position,
                )
        if stmt.where is not None:
            self._check_predicate(stmt.where, scope, "WHERE")

    def _drop_table(self, stmt: ast.DropTable, resolved: ResolvedQuery) -> None:
        if stmt.name.lower() == R_MODELS_TABLE_NAME:
            self.emit("SA107", "R_Models cannot be dropped", stmt.name_position)
            return
        if stmt.if_exists:
            return
        if self.provider.table_types(stmt.name) is None:
            self.emit("SA101", f"table {stmt.name!r} does not exist",
                      stmt.name_position)

    def _refresh_model(self, stmt: ast.RefreshModel,
                       resolved: ResolvedQuery) -> None:
        # Existence is an execution-time concern (like SA105): schema-less
        # lint providers return None and the check is skipped.
        if not self.execution:
            return
        if self.provider.model_exists(stmt.name) is False:
            self.emit("SA109", f"model {stmt.name!r} is not deployed",
                      stmt.name_position)

    # -- AQP statements ----------------------------------------------------

    def _create_sample(self, stmt: ast.CreateSample,
                       resolved: ResolvedQuery) -> None:
        bound = self._mutation_table(stmt.table, stmt.table_position,
                                     "CREATE SAMPLE")
        if bound is None:
            return
        resolved.tables = [bound]
        resolved.column_types = dict(bound.columns)
        if not 0.0 < stmt.rate <= 1.0:
            self.emit(
                "SA212",
                f"sample rate must be in (0, 1]; got {stmt.rate!r} "
                "(write RATE 1% or RATE 0.01)",
                stmt.rate_position,
            )
        if stmt.strata_column is not None and not bound.open \
                and stmt.strata_column not in bound.columns:
            self.emit(
                "SA102",
                f"table {stmt.table!r} has no column {stmt.strata_column!r}",
                stmt.strata_position,
            )

    def _drop_sample(self, stmt: ast.DropSample) -> None:
        # Mirrors SA109: registration is an execution-time concern, skipped
        # by EXPLAIN and by schema-less (None-returning) providers.
        if stmt.if_exists or not self.execution:
            return
        if self._sample_exists(stmt.name) is False:
            self.emit("SA110", f"sample {stmt.name!r} is not registered",
                      stmt.name_position)

    def _sample_exists(self, name: str) -> bool | None:
        # Defensive probe: third-party providers written before samples
        # existed satisfy the old Protocol and must keep working.
        probe = getattr(self.provider, "sample_exists", None)
        if probe is None:
            return None
        result: bool | None = probe(name)
        return result

    def _check_within(self, stmt: ast.Select) -> None:
        """Shape and range checks for ``WITHIN n% ERROR [CONFIDENCE c]``.

        The rewriter scales exactly one plain COUNT/SUM/AVG over a single
        table; anything else cannot be estimated from a Bernoulli sample,
        so the clause is rejected statically instead of silently running
        exact forever.
        """
        assert stmt.within_error is not None
        if not 0.0 < stmt.within_error <= 1.0:
            self.emit(
                "SA213",
                f"WITHIN error bound must be in (0, 1]; got "
                f"{stmt.within_error!r} (write WITHIN 2% ERROR)",
                stmt.within_position,
            )
        if stmt.confidence is not None and not 0.0 < stmt.confidence < 1.0:
            self.emit(
                "SA213",
                f"CONFIDENCE must be in (0, 1); got {stmt.confidence!r}",
                stmt.within_position,
            )
        unsupported = []
        if stmt.join is not None:
            unsupported.append("joins")
        if stmt.udtf is not None:
            unsupported.append("UDTF calls")
        if stmt.group_by:
            unsupported.append("GROUP BY")
        if stmt.having is not None:
            unsupported.append("HAVING")
        if stmt.distinct:
            unsupported.append("DISTINCT")
        if stmt.at_epoch is not None:
            unsupported.append("AT EPOCH")
        if unsupported:
            self.emit(
                "SA312",
                "WITHIN cannot combine with " + " / ".join(unsupported),
                stmt.within_position,
            )
            return
        call = stmt.items[0].expr if len(stmt.items) == 1 else None
        if isinstance(call, ast.AggregateCall) and \
                call.name in ("COUNT", "SUM", "AVG") and not call.distinct:
            return
        self.emit(
            "SA312",
            "WITHIN requires exactly one plain COUNT / SUM / AVG "
            "aggregate in the select list",
            call.position if isinstance(call, ast.AggregateCall)
            else stmt.within_position,
        )

    # -- join condition ----------------------------------------------------

    def _bind_join(self, stmt: ast.Select, join: ast.JoinClause,
                   scope: _Scope) -> BoundJoin | None:
        """Resolve and type-check ``ON`` like any other predicate, then
        split it into the hash join's key pairs and residual filters.

        Runs after every other clause has resolved, so the per-side column
        sets are complete.  Side classification needs both schemas, so an
        open (lint) scope gets the predicate checks only.
        """
        reported = len(self.out)
        self._check_predicate(join.condition, scope, "ON")
        if scope.open or any(d.severity == "error"
                             for d in self.out[reported:]):
            return None
        left, right = scope.tables
        equalities: list[tuple[ast.Expr, ast.Expr]] = []
        residual: list[ast.Expr] = []
        for conjunct in expressions.conjuncts(join.condition):
            if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
                sides = (self._sides(conjunct.left, scope),
                         self._sides(conjunct.right, scope))
                if sides == ({left.alias}, {right.alias}):
                    equalities.append((conjunct.left, conjunct.right))
                    continue
                if sides == ({right.alias}, {left.alias}):
                    equalities.append((conjunct.right, conjunct.left))
                    continue
            residual.append(conjunct)
        if not equalities:
            self.emit(
                "SA313",
                "join condition must include at least one cross-table "
                "equality (e.g. ON a.key = b.key)",
                join.condition.position,
            )
            return None
        left_columns, right_columns = (
            frozenset(bound.columns if stmt.select_star
                      else self.side_columns.get(bound.alias, ()))
            for bound in scope.tables)
        return BoundJoin(
            left_alias=left.alias,
            right_alias=right.alias,
            left_columns=left_columns,
            right_columns=right_columns,
            equalities=tuple(equalities),
            residual=tuple(residual),
            ambiguous=frozenset(scope.ambiguous),
        )

    def _sides(self, expr: ast.Expr, scope: _Scope) -> set[str | None]:
        """Aliases of the join inputs whose columns ``expr`` reads."""
        sides: set[str | None] = set()
        for node in expr.walk():
            if isinstance(node, ast.ColumnRef):
                bound = self._join_side(node, scope, report=False)
                sides.add(None if bound is None else bound.alias)
        return sides

    # -- scope helpers -----------------------------------------------------

    def _substitute(self, expr: ast.Expr, alias_map: Mapping[str, ast.Expr],
                    real_columns: set[str]) -> ast.Expr:
        """Replace bare references to select-list aliases by the aliased
        expression, unless a real table column carries the name."""
        if not alias_map:
            return expr
        if isinstance(expr, ast.ColumnRef):
            if (expr.qualifier is None and expr.name in alias_map
                    and expr.name not in real_columns):
                return alias_map[expr.name]
            return expr
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(
                expr.op,
                self._substitute(expr.left, alias_map, real_columns),
                self._substitute(expr.right, alias_map, real_columns),
            )
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(
                expr.op, self._substitute(expr.operand, alias_map, real_columns))
        if isinstance(expr, ast.FunctionCall):
            return ast.FunctionCall(expr.name, tuple(
                self._substitute(a, alias_map, real_columns) for a in expr.args))
        if isinstance(expr, ast.AggregateCall):
            arg = (None if expr.arg is None
                   else self._substitute(expr.arg, alias_map, real_columns))
            return ast.AggregateCall(expr.name, arg, expr.distinct)
        return expr

    def _collect_aggregates(
        self, items: Iterable[ast.SelectItem], having: ast.Expr | None,
    ) -> list[ast.AggregateCall]:
        seen: dict[ast.AggregateCall, None] = {}
        sources = [item.expr for item in items]
        if having is not None:
            sources.append(having)
        for expr in sources:
            for node in expr.walk():
                if isinstance(node, ast.AggregateCall):
                    nested = node.arg is not None and any(
                        isinstance(d, ast.AggregateCall)
                        for d in node.arg.walk()
                    )
                    if nested:
                        self.emit("SA305", "nested aggregates are not allowed",
                                  node.position)
                    seen.setdefault(node)
        return list(seen)

    def _forbid_aggregates(self, expr: ast.Expr, clause: str,
                           code: str = "SA306") -> None:
        for node in expr.walk():
            if isinstance(node, ast.AggregateCall):
                self.emit(
                    code,
                    f"aggregate {node} cannot be used in {clause}",
                    node.position,
                )
                return

    def _check_grouped(self, expr: ast.Expr, group_by: list[ast.Expr]) -> None:
        """Every column outside an aggregate must match a GROUP BY expression
        (the executor's rewrite rule, checked statically)."""
        if any(expr == g for g in group_by):
            return
        if isinstance(expr, ast.AggregateCall):
            return
        if isinstance(expr, ast.ColumnRef):
            self.emit(
                "SA302",
                f"column {expr.key!r} must appear in GROUP BY or inside "
                "an aggregate",
                expr.position,
            )
            return
        for child in expr.children():
            self._check_grouped(child, group_by)

    # -- predicates --------------------------------------------------------

    def _check_predicate(self, expr: ast.Expr, scope: _Scope, clause: str,
                         aggregates_ok: bool = False) -> None:
        if not aggregates_ok:
            self._forbid_aggregates(expr, clause)
        predicate_type = self._infer(expr, scope, aggregates_ok=aggregates_ok,
                                     report_aggregates=False)
        if predicate_type is SqlType.VARCHAR:
            self.emit(
                "SA207",
                f"{clause} predicate is VARCHAR-typed and cannot be "
                "interpreted as a boolean",
                expr.position,
            )

    # -- type inference ----------------------------------------------------

    def _join_side(self, ref: ast.ColumnRef, scope: _Scope,
                   report: bool) -> BoundTable | None:
        """The join input ``ref`` binds to (None = unresolved)."""
        left, right = scope.tables
        if ref.qualifier is not None:
            bound = scope.side_for(ref.qualifier)
            if bound is None:
                if report:
                    self.emit(
                        "SA106",
                        f"unknown table qualifier {ref.qualifier!r} "
                        f"(inputs: {left.alias!r}, {right.alias!r})",
                        ref.position,
                    )
                return None
            if ref.name not in bound.columns:
                if report and not bound.open:
                    self.emit(
                        "SA102",
                        f"{bound.alias!r} has no column {ref.name!r}",
                        ref.position,
                    )
                return None
            return bound
        if ref.name in scope.ambiguous:
            if report:
                self.emit(
                    "SA301",
                    f"column {ref.name!r} is ambiguous; qualify it with "
                    f"{left.alias!r} or {right.alias!r}",
                    ref.position,
                )
            return None
        for bound in scope.tables:
            if ref.name in bound.columns:
                return bound
        if report and not scope.open:
            self.emit(
                "SA102",
                f"unknown column {ref.name!r} in join query",
                ref.position,
            )
        return None

    def _resolve_column(self, ref: ast.ColumnRef, scope: _Scope,
                        report: bool = True) -> SqlType | None:
        if scope.joined:
            bound = self._join_side(ref, scope, report)
            if bound is None:
                return None
            self.needed.add(ref.key)
            self.side_columns.setdefault(bound.alias, set()).add(ref.name)
            return bound.columns[ref.name]
        # Single table: batches are keyed by bare column names only, so a
        # qualified reference cannot resolve at runtime either.
        if ref.qualifier is not None:
            if report and not scope.open:
                self.emit(
                    "SA102",
                    f"unknown column {ref.key!r} (qualified references "
                    "require a join)",
                    ref.position,
                )
            return None
        if ref.name not in scope.types:
            if report and not scope.open:
                known = sorted(scope.types)
                self.emit(
                    "SA102",
                    f"unknown column {ref.key!r}; available: {known}",
                    ref.position,
                )
            return None
        self.needed.add(ref.name)
        return scope.types[ref.name]

    def _infer(self, expr: ast.Expr, scope: _Scope, *,
               aggregates_ok: bool, report: bool = True,
               report_aggregates: bool = True) -> SqlType | None:
        """Infer the SQL type of ``expr`` (None = statically unknown),
        emitting resolution and type diagnostics along the way."""
        if isinstance(expr, ast.Literal):
            return _literal_type(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._resolve_column(expr, scope, report=report)
        if isinstance(expr, ast.Star):
            return None
        if isinstance(expr, ast.UnaryOp):
            operand = self._infer(expr.operand, scope,
                                  aggregates_ok=aggregates_ok, report=report,
                                  report_aggregates=report_aggregates)
            if expr.op == "NOT":
                return SqlType.BOOLEAN
            if operand is SqlType.VARCHAR:
                if report:
                    self.emit(
                        "SA202",
                        f"unary {expr.op!r} requires a numeric operand; "
                        f"{expr.operand} is VARCHAR",
                        expr.position,
                    )
                return None
            return operand
        if isinstance(expr, ast.BinaryOp):
            return self._infer_binary(expr, scope, aggregates_ok=aggregates_ok,
                                      report=report,
                                      report_aggregates=report_aggregates)
        if isinstance(expr, ast.FunctionCall):
            return self._infer_function(expr, scope, aggregates_ok=aggregates_ok,
                                        report=report,
                                        report_aggregates=report_aggregates)
        if isinstance(expr, ast.AggregateCall):
            if not aggregates_ok and report_aggregates:
                self.emit(
                    "SA306",
                    f"aggregate {expr} cannot be used here",
                    expr.position,
                )
            return self._infer_aggregate(expr, scope, report=report)
        if isinstance(expr, ast.InList):
            operand = self._infer(expr.operand, scope,
                                  aggregates_ok=aggregates_ok, report=report,
                                  report_aggregates=report_aggregates)
            if operand is not None and report:
                for value in expr.values:
                    value_type = _literal_type(value)
                    if value_type is not None and \
                            not _types_comparable(operand, value_type):
                        self.emit(
                            "SA201",
                            f"IN list value {value!r} is not comparable with "
                            f"{operand.value.upper()} operand {expr.operand}",
                            expr.position,
                        )
                        break
            return SqlType.BOOLEAN
        if isinstance(expr, ast.LikeMatch):
            operand = self._infer(expr.operand, scope,
                                  aggregates_ok=aggregates_ok, report=report,
                                  report_aggregates=report_aggregates)
            if operand is not None and operand is not SqlType.VARCHAR and report:
                self.emit(
                    "SA201",
                    f"LIKE requires a VARCHAR operand; {expr.operand} is "
                    f"{operand.value.upper()}",
                    expr.position,
                )
            return SqlType.BOOLEAN
        return None

    def _infer_binary(self, expr: ast.BinaryOp, scope: _Scope, *,
                      aggregates_ok: bool, report: bool,
                      report_aggregates: bool) -> SqlType | None:
        left = self._infer(expr.left, scope, aggregates_ok=aggregates_ok,
                           report=report, report_aggregates=report_aggregates)
        right = self._infer(expr.right, scope, aggregates_ok=aggregates_ok,
                            report=report, report_aggregates=report_aggregates)
        op = expr.op
        if op in ("AND", "OR"):
            return SqlType.BOOLEAN
        if op == "||":
            return SqlType.VARCHAR
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if left is not None and right is not None and report:
                if not _types_comparable(left, right):
                    self.emit(
                        "SA201",
                        f"cannot compare {left.value.upper()} with "
                        f"{right.value.upper()} in {expr}",
                        expr.position,
                    )
                elif _encoding_mismatch(expr, left, right):
                    self.emit(
                        "SA402",
                        f"comparison {expr} mixes INTEGER encoding with a "
                        "fractional FLOAT literal; it can never be exact",
                        expr.position,
                    )
            return SqlType.BOOLEAN
        # Arithmetic: + - * / %
        result: SqlType | None
        if op == "/":
            result = SqlType.FLOAT
        elif left is SqlType.FLOAT or right is SqlType.FLOAT:
            result = SqlType.FLOAT
        elif left is None or right is None:
            result = None
        else:
            result = SqlType.INTEGER
        for side, side_type in ((expr.left, left), (expr.right, right)):
            if side_type is SqlType.VARCHAR and report:
                self.emit(
                    "SA202",
                    f"operator {op!r} requires numeric operands; "
                    f"{side} is VARCHAR",
                    expr.position,
                )
                return None
        return result

    def _infer_function(self, expr: ast.FunctionCall, scope: _Scope, *,
                        aggregates_ok: bool, report: bool,
                        report_aggregates: bool) -> SqlType | None:
        arg_types = [
            self._infer(arg, scope, aggregates_ok=aggregates_ok, report=report,
                        report_aggregates=report_aggregates)
            for arg in expr.args
        ]
        known = self.provider.scalar_functions()
        if known is not None and expr.name not in known:
            if report:
                self.emit("SA103", f"unknown function {expr.name!r}",
                          expr.position)
            return None
        arity = _SCALAR_ARITY.get(expr.name)
        if arity is not None and report:
            low, high = arity
            if len(expr.args) < low or (high is not None and len(expr.args) > high):
                expected = (str(low) if high == low
                            else f"{low}..{'*' if high is None else high}")
                self.emit(
                    "SA204",
                    f"{expr.name}() expects {expected} argument(s), "
                    f"got {len(expr.args)}",
                    expr.position,
                )
        if expr.name in _NUMERIC_FUNCTIONS and report:
            for arg, arg_type in zip(expr.args, arg_types):
                if arg_type is SqlType.VARCHAR:
                    self.emit(
                        "SA202",
                        f"{expr.name}() requires numeric arguments; "
                        f"{arg} is VARCHAR",
                        arg.position,
                    )
        if report:
            self._check_function_argument_types(expr, arg_types)
        result = _FUNCTION_RESULTS.get(expr.name)
        if result is not None:
            return result
        if expr.name in _FUNCTION_RESULTS:  # follows the argument type
            return next((t for t in arg_types if t is not None), None)
        return None  # user-registered function: statically unknown

    def _check_function_argument_types(self, expr: ast.FunctionCall,
                                       arg_types: list[SqlType | None]) -> None:
        """SA204 for built-ins whose runtime cannot take the argument types:
        ``length`` of a number, and ``least``/``greatest`` mixing VARCHAR
        with numbers."""
        typed = [(arg, t) for arg, t in zip(expr.args, arg_types) if t is not None]
        if expr.name == "length":
            wrong = [(arg, t) for arg, t in typed if t is not SqlType.VARCHAR]
            need = "a VARCHAR argument"
        elif expr.name in ("least", "greatest") and typed:
            first_arg, first_type = typed[0]
            text = first_type is SqlType.VARCHAR
            wrong = [(arg, t) for arg, t in typed if (t is SqlType.VARCHAR) != text]
            need = f"arguments comparable with {first_arg} ({first_type.name})"
        else:
            return
        if wrong:
            arg, arg_type = wrong[0]
            self.emit("SA204", f"{expr.name}() requires {need}; "
                      f"{arg} is {arg_type.name}", arg.position)

    def _infer_aggregate(self, expr: ast.AggregateCall, scope: _Scope,
                         report: bool = True) -> SqlType | None:
        arg_type: SqlType | None = None
        if expr.arg is not None:
            arg_type = self._infer(expr.arg, scope, aggregates_ok=False,
                                   report=report, report_aggregates=False)
        if expr.name in ("SUM", "AVG") and arg_type is SqlType.VARCHAR and report:
            self.emit(
                "SA203",
                f"{expr.name} requires a numeric argument; {expr.arg} is VARCHAR",
                expr.position,
            )
        if expr.distinct and expr.name in ("MIN", "MAX") and report:
            self.emit(
                "SA203",
                f"DISTINCT is not supported for {expr.name}",
                expr.position,
            )
        if expr.name == "COUNT":
            return SqlType.INTEGER
        if expr.name in ("SUM", "AVG"):
            return SqlType.FLOAT
        return arg_type  # MIN/MAX follow their argument


# ---------------------------------------------------------------------------
# Type lattice helpers
# ---------------------------------------------------------------------------


def _literal_type(value: object) -> SqlType | None:
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.FLOAT
    if isinstance(value, str):
        return SqlType.VARCHAR
    return None  # NULL


def _types_comparable(left: SqlType, right: SqlType) -> bool:
    if left is right:
        return True
    return left in _NUMERIC_TYPES and right in _NUMERIC_TYPES


def _types_assignable(value: SqlType, target: SqlType) -> bool:
    if value is target:
        return True
    return value in _NUMERIC_TYPES and target in _NUMERIC_TYPES


def _literal_assignable(value: object, target: SqlType) -> bool:
    if value is None:
        return True
    value_type = _literal_type(value)
    if value_type is None:
        return True
    return _types_assignable(value_type, target)


def _encoding_mismatch(expr: ast.BinaryOp, left: SqlType, right: SqlType) -> bool:
    """Equality between an INTEGER-encoded side and a fractional FLOAT
    literal can never hold exactly — a statically detectable smell."""
    if expr.op not in ("=", "<>"):
        return False
    for side_type, other in ((left, expr.right), (right, expr.left)):
        if side_type is SqlType.INTEGER and isinstance(other, ast.Literal) \
                and isinstance(other.value, float) \
                and not float(other.value).is_integer():
            return True
    return False
