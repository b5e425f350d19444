"""Differential oracle: the engine's answers against SQLite's.

Every case runs one query on a 3-node cluster and on stdlib ``sqlite3``
holding the same rows, and the answers must match, floats to 1e-9
(relative, or absolute near zero).  The tables are the smoke-scale ``olap``
benchmark tables (``fact``, ``dim``) and the ten queries of
``bench/olap_queries.sql``, plus small tables for the shapes the corpus
lacks: NULL keys and values, empty join inputs, and 10 to 10 000 groups.

Where the two dialects differ, the difference is listed once in
:data:`DIALECT_DIFFERENCES`; SQLite runs the same text, with the engine's
NULL order spelled out (:func:`_sqlite_text`).  Anything else that differs
is a bug.
"""

from __future__ import annotations

import math
import sqlite3

import numpy as np
import pytest

from bench.workloads.common import SCALES
from bench.workloads.olap import Olap
from repro.vertica import VerticaCluster

DIALECT_DIFFERENCES = (
    # Numeric types.
    "SUM and AVG return FLOAT for every argument type; SQLite's SUM over "
    "INTEGER returns INTEGER.  Answers compare numerically.",
    "'/' is float division; SQLite truncates INTEGER / INTEGER.  No case "
    "divides two integers except by zero, which is NULL in both.",
    # NULL representation.
    "A FLOAT NULL is NaN inside the engine, and a LEFT join's unmatched "
    "INTEGER column comes back FLOAT with NaN, as does INTEGER % INTEGER "
    "when a divisor is zero.  Answers read NaN and None both as NULL.",
    "A VARCHAR NULL written to read-optimized storage reads back as ''.  "
    "String NULLs reach a query through a LEFT join's unmatched rows, so "
    "the cases take them from there.",
    # NULL order.
    "NULL sorts as the largest value: last under ASC and in GROUP BY "
    "output, first under DESC.  SQLite sorts NULL as the smallest, so "
    ":func:`_sqlite_text` gives each ORDER BY term NULLS LAST / NULLS FIRST.",
    # Spelling.
    "GREATEST / LEAST are SQLite's scalar MAX / MIN; :func:`_sqlite_text` "
    "renames them.",
)

NODES = 3
SEED = 1
WIDE_ROWS = 200_000


def _tables() -> dict[str, dict[str, np.ndarray]]:
    olap = Olap(SEED, SCALES["smoke"])
    dim = olap.dim
    part = dim["cust"] < 60  # fact customers 60.. find no dim row
    rng = np.random.default_rng(SEED)
    y = rng.integers(0, 4, 40).astype(np.float64)
    y[::7] = np.nan
    x = rng.normal(size=40) * 100
    x[::5] = np.nan
    x[y == 3] = np.nan  # one non-NULL group whose values are all NULL
    return {
        "fact": olap.columns,
        "dim": dim,
        "dim_part": {name: values[part] for name, values in dim.items()},
        "dim_empty": {name: values[:0] for name, values in dim.items()},
        "fact_empty": {name: values[:0] for name, values in olap.columns.items()},
        "nulls": {"k": np.arange(40), "y": y, "x": x},
        "wide": {"k": np.arange(WIDE_ROWS),
                 "v": np.random.default_rng(SEED + 1).normal(size=WIDE_ROWS)},
    }


@pytest.fixture(scope="module")
def databases():
    tables = _tables()
    cluster = VerticaCluster(node_count=NODES)
    lite = sqlite3.connect(":memory:")
    for name, columns in tables.items():
        cluster.create_table_like(name, columns)
        rows = len(next(iter(columns.values())))
        for lo, hi in ((0, rows // 2), (rows // 2, rows)):  # two row groups
            if hi > lo:
                cluster.bulk_load(name, {c: v[lo:hi] for c, v in columns.items()})
        types = {"i": "INTEGER", "f": "REAL", "O": "TEXT"}
        lite.execute(f"CREATE TABLE {name} (" + ", ".join(
            f"{c} {types[v.dtype.kind]}" for c, v in columns.items()) + ")")
        lite.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            zip(*(_nulls_as_none(v.tolist()) for v in columns.values())))
    yield cluster, lite, Olap(SEED, SCALES["smoke"]).queries
    lite.close()


def _nulls_as_none(values: list) -> list:
    return [None if isinstance(v, float) and math.isnan(v) else v
            for v in values]


def _same(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def _sort_key(row: tuple) -> tuple:
    return tuple((value is None, 0 if value is None else value)
                 for value in row)


def _sqlite_text(query: str) -> str:
    """``query`` in SQLite's spelling, each ORDER BY term given the
    engine's NULL order."""
    query = query.replace("GREATEST(", "MAX(").replace("LEAST(", "MIN(")
    head, order_by, tail = query.partition(" ORDER BY ")
    if not order_by:
        return query
    terms, limit, count = tail.partition(" LIMIT ")
    terms = ", ".join(
        term + (" NULLS FIRST" if term.endswith(" DESC") else " NULLS LAST")
        for term in terms.split(", "))
    return head + order_by + terms + limit + count


def assert_matches(databases, query: str):
    cluster, lite, _ = databases
    got = [tuple(_nulls_as_none(list(row)))
           for row in cluster.sql(query).rows()]
    want = lite.execute(_sqlite_text(query)).fetchall()
    if "ORDER BY" not in query:
        got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    assert len(got) == len(want), (len(got), len(want))
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        assert all(map(_same, got_row, want_row)), (got_row, want_row)


OLAP_QUERIES = ("q_scan_agg", "q_filter_agg", "q_prune", "q_group_low",
                "q_group_mid", "q_group_high", "q_topk", "q_join",
                "q_distinct", "q_point")


@pytest.mark.parametrize("name", OLAP_QUERIES)
def test_olap_corpus(databases, name):
    _, _, queries = databases
    assert set(queries) == set(OLAP_QUERIES)
    assert_matches(databases, queries[name])


@pytest.mark.parametrize("query", [
    # multi-key and expression GROUP BY
    "SELECT status, g, COUNT(*) AS n, SUM(qty) AS q, MIN(price) AS lo "
    "FROM fact GROUP BY status, g ORDER BY status, g",
    "SELECT g % 7 AS m, COUNT(*) AS n, AVG(price) AS p "
    "FROM fact GROUP BY g % 7 ORDER BY m",
    "SELECT status, g % 3 AS m, MAX(disc) AS hi, MIN(status) AS s "
    "FROM fact GROUP BY status, g % 3 ORDER BY m DESC, status",
    "SELECT qty * 2 + 1 AS q, COUNT(*) AS n FROM fact WHERE qty < 5 "
    "GROUP BY qty * 2 + 1",
    # HAVING
    "SELECT g, COUNT(*) AS n, SUM(price) AS s FROM fact "
    "GROUP BY g HAVING COUNT(*) > 40 AND SUM(price) > 2000 ORDER BY g",
    "SELECT status, AVG(qty) AS a FROM fact GROUP BY status "
    "HAVING AVG(qty) > 24.9",
    # COUNT(DISTINCT) and friends with GROUP BY
    "SELECT status, COUNT(DISTINCT cust) AS n, COUNT(DISTINCT g) AS ng "
    "FROM fact GROUP BY status ORDER BY status",
    "SELECT g % 5 AS m, SUM(DISTINCT qty) AS s, AVG(DISTINCT qty) AS a, "
    "COUNT(DISTINCT status) AS d FROM fact GROUP BY g % 5 ORDER BY m",
    # ORDER BY an aggregate, LIMIT
    "SELECT cust, SUM(price) AS s FROM fact GROUP BY cust "
    "ORDER BY s DESC LIMIT 7",
    # SELECT DISTINCT
    "SELECT DISTINCT status, qty % 3 AS m FROM fact",
])
def test_grouping(databases, query):
    assert_matches(databases, query)


@pytest.mark.parametrize("query", [
    # INNER joins with a residual ON conjunct
    "SELECT d.region, COUNT(*) AS n, SUM(f.qty) AS q FROM fact f "
    "JOIN dim d ON f.cust = d.cust AND f.qty > 25 "
    "GROUP BY d.region ORDER BY d.region",
    "SELECT f.k, d.region FROM fact f "
    "JOIN dim d ON f.cust = d.cust AND d.region = 'r2' WHERE f.qty > 45",
    "SELECT f.k, d.k AS dk FROM fact f JOIN dim d "
    "ON f.cust = d.cust AND f.g = d.k % 100 AND f.qty < d.cust",
    # LEFT joins: a residual conjunct and unmatched keys make NULL rows
    "SELECT d.region, COUNT(*) AS n, SUM(f.price) AS s, MIN(d.region) AS r "
    "FROM fact f LEFT JOIN dim d ON f.cust = d.cust AND d.region <> 'r3' "
    "GROUP BY d.region ORDER BY d.region",
    "SELECT f.k, d.region, d.cust AS dc FROM fact f "
    "LEFT JOIN dim_part d ON f.cust = d.cust WHERE f.k < 300",
    "SELECT COUNT(*) AS n, COUNT(d.region) AS r, "
    "COUNT(DISTINCT d.region) AS dr, MAX(d.region) AS hi, AVG(d.cust) AS a "
    "FROM fact f LEFT JOIN dim_part d ON f.cust = d.cust",
    "SELECT d.region, f.status, COUNT(*) AS n FROM fact f "
    "LEFT JOIN dim_part d ON f.cust = d.cust "
    "GROUP BY d.region, f.status ORDER BY d.region DESC, f.status",
    # joins against empty inputs
    "SELECT COUNT(*) AS n, SUM(f.price) AS s FROM fact f "
    "JOIN dim_empty d ON f.cust = d.cust",
    "SELECT d.region, COUNT(*) AS n, COUNT(d.cust) AS c FROM fact f "
    "LEFT JOIN dim_empty d ON f.cust = d.cust GROUP BY d.region",
    "SELECT f.k, d.region FROM fact f LEFT JOIN dim_empty d "
    "ON f.cust = d.cust WHERE f.k < 50",
    # scalar GREATEST / LEAST over the unmatched rows' NULL strings
    "SELECT f.k, GREATEST(d.region, 'r2') AS g, LEAST(d.region, 'r2') AS l "
    "FROM fact f LEFT JOIN dim_part d ON f.cust = d.cust WHERE f.k < 300",
    "SELECT COUNT(*) AS n FROM fact_empty f JOIN dim d ON f.cust = d.cust",
    "SELECT f.k, d.region FROM fact_empty f LEFT JOIN dim d "
    "ON f.cust = d.cust",
])
def test_joins(databases, query):
    assert_matches(databases, query)


@pytest.mark.parametrize("query", [
    "SELECT COUNT(*) AS n, COUNT(x) AS c, SUM(x) AS s, AVG(x) AS a, "
    "MIN(x) AS lo, MAX(x) AS hi, COUNT(DISTINCT x) AS d, "
    "COUNT(y) AS cy FROM nulls",
    "SELECT y, COUNT(*) AS n, COUNT(x) AS c, SUM(x) AS s, AVG(x) AS a, "
    "MIN(x) AS lo, MAX(x) AS hi FROM nulls GROUP BY y ORDER BY y",
    "SELECT y, COUNT(*) AS n FROM nulls GROUP BY y HAVING COUNT(x) > 0",
    "SELECT y, k FROM nulls ORDER BY y DESC, k",
    "SELECT y, SUM(x) AS s FROM nulls GROUP BY y ORDER BY s",
    "SELECT DISTINCT y FROM nulls",
    "SELECT COUNT(*) AS n, SUM(x) AS s, MIN(x) AS lo, "
    "COUNT(DISTINCT x) AS d FROM nulls WHERE k > 1000",
])
def test_nulls(databases, query):
    assert_matches(databases, query)


@pytest.mark.parametrize("query", [
    # INTEGER and FLOAT x / 0 and x % 0 are NULL
    "SELECT k, k / 0 AS d, k % 0 AS m FROM nulls",
    "SELECT k, x / 0 AS d, x % 0 AS m, x / 0.0 AS e FROM nulls",
    # a divisor column holding zeros (and NULLs)
    "SELECT k, k % y AS m, x / y AS q, k / y AS r FROM nulls",
    "SELECT y, COUNT(k % y) AS n, COUNT(x / y) AS c, SUM(x / y) AS s "
    "FROM nulls GROUP BY y ORDER BY y",
])
def test_division_by_zero(databases, query):
    assert_matches(databases, query)


@pytest.mark.parametrize("groups", [10, 1_000, 10_000])
def test_group_count(databases, groups):
    """The same GROUP BY over 200 000 rows at 10, 10^3 and 10^4 groups."""
    assert_matches(
        databases,
        f"SELECT k % {groups} AS m, COUNT(*) AS n, SUM(v) AS s, "
        f"MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS a FROM wide "
        f"GROUP BY k % {groups} ORDER BY m")
