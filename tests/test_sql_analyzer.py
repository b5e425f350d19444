"""Golden corpus for the SQL semantic analyzer.

Every entry in :data:`CORPUS` is one statically invalid statement with the
diagnostic code and source offset the analyzer must report.  An
exhaustiveness check asserts the corpus exercises *every* code in
``SA_CODES`` so a new diagnostic cannot land without a golden case.  The
rest of the module covers the lenient (schema-less lint) mode, the typed
exception mapping, the :class:`ResolvedQuery` payload the planner consumes,
and the executor integration (EXPLAIN relaxing execution-only checks).
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CatalogError,
    ExecutionError,
    SemanticError,
    SemanticParameterError,
    SemanticResolutionError,
    SqlAnalysisError,
)
from repro.storage.encoding import SqlType
from repro.vertica import VerticaCluster
from repro.vertica.sql import parse
from repro.vertica.sql.analyzer import (
    SA_CODES,
    WARNING_CODES,
    ClusterProvider,
    Diagnostic,
    LenientProvider,
    analyze,
    check,
    sa_codes_markdown_table,
)


@pytest.fixture(scope="module")
def analyzer_cluster():
    """A cluster with two plain tables and the standard UDTFs registered.

    ``t`` mixes all four SQL types; ``u`` shares column ``k`` with it so
    join-scope diagnostics (ambiguity, qualifiers) have something to bind.
    Module-scoped: the analyzer only reads the catalog.
    """
    cluster = VerticaCluster(node_count=2)
    cluster.sql("CREATE TABLE t (k INTEGER, a FLOAT, b FLOAT, name VARCHAR)")
    cluster.sql("CREATE TABLE u (k INTEGER, c FLOAT)")
    cluster.install_standard_functions()
    return cluster


@pytest.fixture(scope="module")
def provider(analyzer_cluster):
    return ClusterProvider(analyzer_cluster)


# ---------------------------------------------------------------------------
# Golden corpus: (sql, expected code, marker whose offset is the position)
# ---------------------------------------------------------------------------

#: ``marker=None`` means the diagnostic is statement-level (no offset).
CORPUS: list[tuple[str, str, str | None]] = [
    # -- SA1xx: name resolution -----------------------------------------
    ("SELECT a FROM missing", "SA101", "missing"),
    ("DROP TABLE missing", "SA101", "missing"),
    ("SELECT zz FROM t", "SA102", "zz"),
    ("SELECT frobnicate(a) FROM t", "SA103", "frobnicate"),
    ("SELECT badUdtf(a) OVER (PARTITION BY k) FROM t", "SA104", "badUdtf"),
    ("SELECT glmPredict(a, b USING PARAMETERS model='ghost') "
     "OVER (PARTITION BEST) FROM t", "SA105", "glmPredict"),
    ("SELECT x.a FROM t JOIN u ON t.k = u.k", "SA106", "x.a"),
    ("DELETE FROM R_Models", "SA107", "R_Models"),
    ("UPDATE R_Models SET model = 'x'", "SA107", "R_Models"),
    ("INSERT INTO R_Models VALUES ('x')", "SA107", "R_Models"),
    ("SELECT * FROM t JOIN R_Models ON t.k = 1", "SA108", "R_Models"),
    ("REFRESH MODEL ghost", "SA109", "ghost"),
    ("DROP SAMPLE ghost", "SA110", "ghost"),
    # -- SA2xx: type checking -------------------------------------------
    ("SELECT a FROM t WHERE name = 3", "SA201", "= 3"),
    ("SELECT a FROM t WHERE k IN (1, 'x')", "SA201", "IN"),
    ("SELECT a FROM t WHERE a LIKE 'x%'", "SA201", "LIKE"),
    ("SELECT name + 1 FROM t", "SA202", "+ 1"),
    ("SELECT -name FROM t", "SA202", "-name"),
    ("SELECT SUM(name) FROM t", "SA203", "SUM"),
    ("SELECT MIN(DISTINCT a) FROM t", "SA203", "MIN"),
    ("SELECT sqrt(a, b) FROM t", "SA204", "sqrt"),
    ("SELECT glmPredict() OVER (PARTITION BEST) FROM t", "SA204",
     "glmPredict"),
    ("SELECT glmPredict(name USING PARAMETERS model='ghost') "
     "OVER (PARTITION BEST) FROM t", "SA204", "name"),
    ("SELECT glmPredict(a, b) OVER (PARTITION BEST) FROM t", "SA205",
     "glmPredict"),
    ("SELECT glmPredict(a USING PARAMETERS model='ghost') "
     "OVER (PARTITION BY SUM(k)) FROM t", "SA206", "SUM(k)"),
    ("SELECT a FROM t WHERE name", "SA207", "name"),
    ("INSERT INTO t VALUES (1, 2.0)", "SA208", "(1,"),
    ("INSERT INTO t VALUES (1, 2.0, 3.0, 4)", "SA209", "(1,"),
    ("CREATE TABLE bad (x FLOATY)", "SA210", "FLOATY"),
    ("UPDATE t SET name = 1 WHERE k = 0", "SA211", "1 WHERE"),
    ("CREATE SAMPLE s ON t UNIFORM RATE 150%", "SA212", "RATE 150"),
    ("SELECT AVG(a) FROM t WITHIN 200% ERROR", "SA213", "WITHIN"),
    # -- SA3xx: scope checking ------------------------------------------
    ("SELECT k FROM t JOIN u ON t.k = u.k", "SA301", "k FROM"),
    ("SELECT a, SUM(b) FROM t", "SA302", "a,"),
    ("SELECT 1 FROM t JOIN t ON k = k", "SA303", "t ON"),
    ("CREATE TABLE dup (x INTEGER, x FLOAT)", "SA303", "x FLOAT"),
    ("UPDATE t SET a = 1, a = 2", "SA303", "a = 2"),
    ("SELECT a FROM t HAVING a > 1", "SA304", None),
    ("SELECT SUM(AVG(a)) FROM t", "SA305", "SUM"),
    ("SELECT a FROM t WHERE SUM(a) > 1", "SA306", "SUM"),
    ("SELECT glmPredict(a USING PARAMETERS model='ghost') "
     "OVER (PARTITION BEST) FROM t ORDER BY a", "SA307", "glmPredict"),
    ("SELECT DISTINCT k FROM t GROUP BY k", "SA308", None),
    ("SELECT * FROM t GROUP BY k", "SA309", None),
    ("SELECT 1", "SA310", None),
    ("AT EPOCH 1 SELECT * FROM R_Models", "SA311", None),
    ("SELECT MIN(a) FROM t WITHIN 5% ERROR", "SA312", "MIN"),
    # (row 46 keeps its slot from when this was warning SA401)
    ("SELECT t.a FROM t JOIN u ON t.k = 1", "SA313", "= 1"),
    # -- SA4xx: warnings ------------------------------------------------
    ("SELECT a FROM t WHERE k = 1.5", "SA402", "= 1.5"),
    # -- cross-cutting extras -------------------------------------------
    ("CREATE TABLE seg (x INTEGER) SEGMENTED BY HASH(y) ALL NODES",
     "SA102", "y)"),
    # -- the join's ON clause is analyzed like every other predicate ------
    ("SELECT t.a FROM t JOIN u ON t.zzz = u.k", "SA102", "t.zzz"),
    ("SELECT t.a FROM t JOIN u ON t.k = u.k AND x.k = 1", "SA106", "x.k"),
    ("SELECT t.a FROM t JOIN u ON k = u.k", "SA301", "k = u.k"),
    ("SELECT t.a FROM t JOIN u ON t.k = u.k AND nosuchfn(t.k) = 1",
     "SA103", "nosuchfn"),
    ("SELECT t.a FROM t JOIN u ON t.k = u.k AND SUM(t.k) = 1",
     "SA306", "SUM"),
    ("SELECT t.a FROM t JOIN u ON t.k = u.k AND t.a = 'x'", "SA201", "= 'x'"),
    ("SELECT t.a FROM t JOIN u ON t.name", "SA207", "t.name"),
    ("SELECT t.a FROM t JOIN u ON t.k > u.k", "SA313", "> u.k"),
    # -- colliding output names (results are keyed by output name) --------
    ("SELECT t.k, u.k FROM t JOIN u ON t.k = u.k", "SA303", "u.k FROM"),
    ("SELECT k AS x, a AS x FROM t", "SA303", "a AS x"),
    # -- built-ins whose runtime cannot take the argument types ----------
    ("SELECT abs(name) FROM t", "SA202", "name"),
    ("SELECT length(k) FROM t", "SA204", "k)"),
    ("SELECT least(k, name) FROM t", "SA204", "name"),
    ("SELECT greatest(name, 'm', a) FROM t", "SA204", "a)"),
]


@pytest.mark.parametrize(
    "sql,code,marker", CORPUS, ids=[f"{c}-{i}" for i, (_, c, _) in enumerate(CORPUS)]
)
def test_golden_corpus(provider, sql, code, marker):
    resolved = analyze(parse(sql), provider)
    hits = [d for d in resolved.diagnostics if d.code == code]
    assert hits, (
        f"expected {code} for {sql!r}, got "
        f"{[(d.code, d.message) for d in resolved.diagnostics]}"
    )
    expected = None if marker is None else sql.index(marker)
    assert hits[0].position == expected, (
        f"{code} for {sql!r}: position {hits[0].position}, expected {expected}"
    )
    severity = "warning" if code in WARNING_CODES else "error"
    assert hits[0].severity == severity


def test_corpus_is_exhaustive():
    """Every registered diagnostic code has at least one golden case."""
    covered = {code for _, code, _ in CORPUS}
    assert covered == set(SA_CODES), (
        f"codes without a golden case: {sorted(set(SA_CODES) - covered)}; "
        f"unregistered codes in corpus: {sorted(covered - set(SA_CODES))}"
    )


def test_corpus_is_large_enough():
    errors = [sql for sql, code, _ in CORPUS if code not in WARNING_CODES]
    assert len(errors) >= 25


# ---------------------------------------------------------------------------
# Valid statements produce no diagnostics at all
# ---------------------------------------------------------------------------

VALID = [
    "SELECT a, b FROM t WHERE k > 0 ORDER BY a LIMIT 5",
    "SELECT k, COUNT(*) AS n, AVG(a) FROM t GROUP BY k HAVING COUNT(*) > 1",
    "SELECT t.a, u.c FROM t JOIN u ON t.k = u.k WHERE u.c > 0",
    "SELECT DISTINCT name FROM t",
    "SELECT upper(name), abs(a) + sqrt(b) FROM t",
    "SELECT * FROM R_Models",
    "INSERT INTO u VALUES (1, 2.0), (2, 3.5)",
    "UPDATE u SET c = c + 1 WHERE k = 2",
    "DELETE FROM u WHERE c > 100",
    "DROP TABLE IF EXISTS never_made",
    "AT EPOCH 1 SELECT a FROM t",
    "SELECT least(a, k, 2.5), greatest(name, 'm', NULL), length(name) FROM t",
]


@pytest.mark.parametrize("sql", VALID)
def test_valid_statements_are_clean(provider, sql):
    resolved = analyze(parse(sql), provider)
    assert resolved.diagnostics == [], [d.render() for d in resolved.diagnostics]
    assert resolved.ok


# ---------------------------------------------------------------------------
# Lenient (schema-less lint) mode
# ---------------------------------------------------------------------------

def test_lenient_mode_accepts_unknown_schemas():
    resolved = analyze(
        parse("SELECT anything, more FROM wherever WHERE flag > 0"),
        LenientProvider(),
    )
    assert resolved.ok
    assert resolved.tables[0].open


def test_lenient_mode_still_catches_structural_errors():
    for sql, code in [
        ("SELECT a FROM t HAVING a > 1", "SA304"),
        ("SELECT DISTINCT k FROM t GROUP BY k", "SA308"),
        ("SELECT SUM(AVG(a)) FROM t", "SA305"),
        ("SELECT a FROM t WHERE SUM(a) > 1", "SA306"),
        ("UPDATE R_Models SET model = 'x'", "SA107"),
        ("SELECT 1", "SA310"),
    ]:
        resolved = analyze(parse(sql), LenientProvider())
        assert [d.code for d in resolved.errors] == [code], sql


def test_lenient_mode_skips_refresh_model_catalog_check():
    """SA109 is a catalog check: without a cluster it must not fire."""
    resolved = analyze(parse("REFRESH MODEL anything"), LenientProvider())
    assert resolved.ok


def test_lenient_mode_types_r_models():
    """R_Models keeps its real schema even without a cluster."""
    resolved = analyze(
        parse("SELECT ghost FROM R_Models"), LenientProvider()
    )
    assert [d.code for d in resolved.errors] == ["SA102"]


# ---------------------------------------------------------------------------
# Typed exception mapping
# ---------------------------------------------------------------------------

def test_missing_table_raises_catalog_flavored_error(provider):
    with pytest.raises(SemanticResolutionError) as err:
        check(parse("SELECT a FROM missing"), provider)
    assert isinstance(err.value, CatalogError)
    assert isinstance(err.value, SqlAnalysisError)
    assert str(err.value).startswith("SA101:")
    assert err.value.position == "SELECT a FROM missing".index("missing")


def test_udtf_parameter_error_is_an_execution_error(provider):
    with pytest.raises(SemanticParameterError) as err:
        check(parse("SELECT glmPredict(a, b) OVER (PARTITION BEST) FROM t"),
              provider)
    assert isinstance(err.value, ExecutionError)
    assert "model" in str(err.value)


def test_scope_error_raises_plain_semantic_error(provider):
    with pytest.raises(SemanticError) as err:
        check(parse("SELECT a, SUM(b) FROM t"), provider)
    assert str(err.value).startswith("SA302:")
    assert err.value.diagnostics
    assert err.value.diagnostics[0].code == "SA302"


def test_warnings_do_not_raise(provider):
    resolved = check(parse("SELECT a FROM t WHERE k = 1.5"), provider)
    assert resolved.ok
    assert [d.code for d in resolved.warnings] == ["SA402"]


def test_explain_relaxes_model_existence(provider):
    sql = ("EXPLAIN SELECT glmPredict(a USING PARAMETERS model='ghost') "
           "OVER (PARTITION BEST) FROM t")
    assert check(parse(sql), provider).ok
    with pytest.raises(SemanticResolutionError):
        check(parse(sql[len("EXPLAIN "):]), provider)


# ---------------------------------------------------------------------------
# ResolvedQuery payload (what the planner/executor consume)
# ---------------------------------------------------------------------------

def test_resolved_query_carries_projection_and_types(provider):
    resolved = check(
        parse("SELECT a, k FROM t WHERE b > 0 ORDER BY a"), provider
    )
    assert resolved.columns_needed == {"a", "k", "b"}
    assert resolved.output_types == {"a": SqlType.FLOAT, "k": SqlType.INTEGER}
    assert resolved.column_types["name"] is SqlType.VARCHAR


def test_resolved_query_carries_create_types(provider):
    resolved = check(
        parse("CREATE TABLE fresh (i INTEGER, f FLOAT, s VARCHAR, "
              "flag BOOLEAN)"),
        provider,
    )
    assert resolved.create_types == [
        SqlType.INTEGER, SqlType.FLOAT, SqlType.VARCHAR, SqlType.BOOLEAN,
    ]


def test_resolved_query_carries_udtf_signature(provider):
    resolved = check(
        parse("EXPLAIN SELECT glmPredict(a, b USING PARAMETERS "
              "model='ghost') OVER (PARTITION BEST) FROM t"),
        provider,
    )
    assert resolved.udtf_signature is not None
    assert resolved.udtf_signature.model_parameter == "model"
    assert resolved.columns_needed == {"a", "b"}


def test_diagnostic_render_includes_code_and_offset():
    assert Diagnostic("SA102", "unknown column 'zz'", 7).render() == (
        "SA102 error: unknown column 'zz' (at offset 7)"
    )
    assert Diagnostic("SA310", "no FROM", None).render() == (
        "SA310 error: no FROM"
    )


def test_sa_codes_table_lists_every_code():
    table = sa_codes_markdown_table()
    for code in SA_CODES:
        assert f"`{code}`" in table


# ---------------------------------------------------------------------------
# Executor integration: cluster.sql is gated by the analyzer
# ---------------------------------------------------------------------------

def test_cluster_sql_rejects_before_execution(analyzer_cluster):
    with pytest.raises(SemanticError) as err:
        analyzer_cluster.sql("SELECT zz FROM t")
    assert str(err.value).startswith("SA102:")


def test_cluster_sql_explains_undeployed_model(analyzer_cluster):
    """EXPLAIN must work for a model that is not deployed yet (SA105 is
    execution-only), while running the same query fails statically."""
    sql = ("SELECT glmPredict(a USING PARAMETERS model='ghost') "
           "OVER (PARTITION BEST) FROM t")
    plan = analyzer_cluster.sql("EXPLAIN " + sql)
    assert len(plan) > 0
    with pytest.raises(SemanticResolutionError):
        analyzer_cluster.sql(sql)


# ---------------------------------------------------------------------------
# tools/sql_lint.py: the .sql corpus reader
# ---------------------------------------------------------------------------

def test_sql_lint_reads_sql_corpora(tmp_path):
    import io
    from pathlib import Path

    import sql_lint  # tools/ is on sys.path (tests/conftest.py)

    corpus = Path(sql_lint.REPO_ROOT) / "bench" / "olap_queries.sql"
    named = corpus.read_text().count("-- name:")
    assert sql_lint.lint_file(corpus, out=io.StringIO()) == (named, 0, 0)

    broken = tmp_path / "broken.sql"
    broken.write_text(
        "-- a comment; its semicolon separates nothing\n"
        "SELECT a FROM t WHERE note = 'x;y -- z';\n"
        "\n"
        "SELECT a FROM t\n"
        "HAVING a > {lo};\n"
        "SELEC oops;\n"
    )
    out = io.StringIO()
    assert sql_lint.lint_file(broken, out=out) == (3, 2, 0)
    report = out.getvalue()
    assert f"{broken}:4: SA304" in report
    assert f"{broken}:6: syntax error" in report

