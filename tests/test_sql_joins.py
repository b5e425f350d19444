"""Tests for SQL join support (hash equi-joins, inner and left)."""

import numpy as np
import pytest

from repro.errors import SemanticError, SqlAnalysisError
from repro.vertica import VerticaCluster
from repro.vertica.sql import ast, parse


@pytest.fixture
def join_cluster():
    cluster = VerticaCluster(node_count=3)
    cluster.sql("CREATE TABLE users (uid INT, name VARCHAR, region INT) "
                "SEGMENTED BY HASH(uid) ALL NODES")
    cluster.sql("INSERT INTO users VALUES (1,'ann',10),(2,'bob',20),"
                "(3,'cat',10),(4,'dan',30)")
    cluster.sql("CREATE TABLE orders (oid INT, uid INT, amount FLOAT) "
                "SEGMENTED BY HASH(oid) ALL NODES")
    cluster.sql("INSERT INTO orders VALUES (100,1,5.0),(101,1,7.5),"
                "(102,2,3.0),(103,9,99.0)")
    return cluster


# The join_cluster rows as arrays, for numpy references.
USERS = {"uid": np.array([1, 2, 3, 4]), "region": np.array([10, 20, 10, 30])}
ORDERS = {"oid": np.array([100, 101, 102, 103]),
          "uid": np.array([1, 1, 2, 9]),
          "amount": np.array([5.0, 7.5, 3.0, 99.0])}


def _joined_reference() -> dict[str, np.ndarray]:
    """users JOIN orders ON uid, as parallel arrays in orders order."""
    keep = np.isin(ORDERS["uid"], USERS["uid"])
    at = np.searchsorted(USERS["uid"], ORDERS["uid"][keep])
    return {"oid": ORDERS["oid"][keep], "o.uid": ORDERS["uid"][keep],
            "amount": ORDERS["amount"][keep], "region": USERS["region"][at]}


def _alias_cases():
    """(id, sql, expected rows): the one rule for select-list aliases in
    GROUP BY / HAVING / ORDER BY — a bare name that is a real column of
    either input means the column; otherwise it means the aliased
    expression, at any depth; qualified references are never aliases."""
    j = _joined_reference()

    def rows(order, *columns):
        return [tuple(c[i] for c in columns) for i in order]

    by_amount = np.lexsort((j["oid"], j["amount"]))
    yield ("real-right-column-wins",
           "SELECT u.region AS amount, o.oid FROM users u JOIN orders o "
           "ON u.uid = o.uid ORDER BY amount, o.oid",
           rows(by_amount, j["region"], j["oid"]))
    by_region_desc = np.lexsort((j["oid"], -j["region"]))
    yield ("real-left-column-wins",
           "SELECT o.amount AS region, o.oid FROM users u JOIN orders o "
           "ON u.uid = o.uid ORDER BY region DESC, o.oid",
           rows(by_region_desc, j["amount"], j["oid"]))
    by_uid = np.lexsort((j["oid"], j["o.uid"]))
    yield ("qualified-never-substituted",
           "SELECT o.amount * -1 AS uid, o.oid FROM users u JOIN orders o "
           "ON u.uid = o.uid ORDER BY o.uid, o.oid",
           rows(by_uid, -j["amount"], j["oid"]))
    bumped = np.unique(ORDERS["uid"] + 1)[::-1]
    yield ("alias-inside-aggregate-in-order-by",
           "SELECT uid + 1 AS m, MAX(uid + 1) AS top FROM orders "
           "GROUP BY m ORDER BY MAX(m) DESC",
           rows(range(len(bumped)), bumped, bumped))
    uids, idx = np.unique(ORDERS["uid"], return_inverse=True)
    totals = np.bincount(idx, weights=ORDERS["amount"])
    yield ("alias-in-having-arithmetic",
           "SELECT uid, SUM(amount) AS total FROM orders GROUP BY uid "
           "HAVING total * 2 > 10 ORDER BY uid",
           rows(np.flatnonzero(totals * 2 > 10), uids, totals))


ALIAS_CASES = list(_alias_cases())


class TestJoinParsing:
    def test_inner_join_with_aliases(self):
        stmt = parse("SELECT u.name FROM users u JOIN orders o ON u.uid = o.uid")
        assert stmt.table == "users"
        assert stmt.table_alias == "u"
        assert stmt.join.table == "orders"
        assert stmt.join.alias == "o"
        assert stmt.join.kind == "inner"

    def test_explicit_inner_keyword(self):
        stmt = parse("SELECT a.x FROM t1 a INNER JOIN t2 b ON a.x = b.x")
        assert stmt.join.kind == "inner"

    def test_left_outer_join(self):
        stmt = parse("SELECT a.x FROM t1 a LEFT OUTER JOIN t2 b ON a.x = b.x")
        assert stmt.join.kind == "left"
        stmt = parse("SELECT a.x FROM t1 a LEFT JOIN t2 b ON a.x = b.x")
        assert stmt.join.kind == "left"

    def test_qualified_column_ref(self):
        stmt = parse("SELECT u.name FROM users u")
        ref = stmt.items[0].expr
        assert isinstance(ref, ast.ColumnRef)
        assert ref.qualifier == "u"
        assert ref.key == "u.name"

    def test_no_alias_uses_table_name(self):
        stmt = parse("SELECT users.name FROM users JOIN orders "
                     "ON users.uid = orders.uid")
        assert stmt.table_alias is None
        assert stmt.join.alias is None


class TestInnerJoin:
    def test_matches_manual_join(self, join_cluster):
        rows = join_cluster.sql(
            "SELECT u.name, o.amount FROM users u JOIN orders o "
            "ON u.uid = o.uid ORDER BY o.amount"
        ).rows()
        assert rows == [("bob", 3.0), ("ann", 5.0), ("ann", 7.5)]

    def test_unmatched_rows_dropped_both_sides(self, join_cluster):
        result = join_cluster.sql(
            "SELECT u.uid FROM users u JOIN orders o ON u.uid = o.uid"
        )
        assert set(result.column("uid").tolist()) == {1, 2}  # no cat/dan/9

    def test_unqualified_unambiguous_columns(self, join_cluster):
        rows = join_cluster.sql(
            "SELECT name, amount FROM users u JOIN orders o ON u.uid = o.uid "
            "ORDER BY amount DESC LIMIT 1"
        ).rows()
        assert rows == [("ann", 7.5)]

    def test_ambiguous_column_rejected(self, join_cluster):
        with pytest.raises(SqlAnalysisError, match="ambiguous"):
            join_cluster.sql(
                "SELECT uid FROM users u JOIN orders o ON u.uid = o.uid"
            )

    def test_aggregation_over_join(self, join_cluster):
        rows = join_cluster.sql(
            "SELECT u.name, SUM(o.amount) AS total, COUNT(*) AS n "
            "FROM users u JOIN orders o ON u.uid = o.uid "
            "GROUP BY u.name ORDER BY total DESC"
        ).rows()
        assert rows == [("ann", 12.5, 2), ("bob", 3.0, 1)]

    def test_where_after_join(self, join_cluster):
        rows = join_cluster.sql(
            "SELECT o.oid FROM users u JOIN orders o ON u.uid = o.uid "
            "WHERE u.region = 10 ORDER BY o.oid"
        ).rows()
        assert [r[0] for r in rows] == [100, 101]

    def test_residual_join_condition(self, join_cluster):
        rows = join_cluster.sql(
            "SELECT o.oid FROM users u JOIN orders o "
            "ON u.uid = o.uid AND o.amount > 4 ORDER BY o.oid"
        ).rows()
        assert [r[0] for r in rows] == [100, 101]

    @pytest.mark.parametrize("sql,expected",
                             [case[1:] for case in ALIAS_CASES],
                             ids=[case[0] for case in ALIAS_CASES])
    def test_alias_resolution(self, join_cluster, sql, expected):
        assert join_cluster.sql(sql).rows() == expected

    def test_select_star_uses_qualified_names(self, join_cluster):
        result = join_cluster.sql(
            "SELECT * FROM users u JOIN orders o ON u.uid = o.uid LIMIT 1"
        )
        assert result.column_names == [
            "u.uid", "u.name", "u.region", "o.oid", "o.uid", "o.amount"
        ]

    def test_multi_key_equality(self):
        cluster = VerticaCluster(node_count=2)
        cluster.sql("CREATE TABLE a (x INT, y INT, v FLOAT)")
        cluster.sql("INSERT INTO a VALUES (1,1,10.0),(1,2,20.0),(2,1,30.0)")
        cluster.sql("CREATE TABLE b (x INT, y INT, w FLOAT)")
        cluster.sql("INSERT INTO b VALUES (1,1,0.1),(1,2,0.2),(2,2,0.9)")
        rows = cluster.sql(
            "SELECT a.v, b.w FROM a JOIN b ON a.x = b.x AND a.y = b.y "
            "ORDER BY a.v"
        ).rows()
        assert rows == [(10.0, 0.1), (20.0, 0.2)]

    def test_duplicate_keys_produce_cross_product(self):
        cluster = VerticaCluster(node_count=2)
        cluster.sql("CREATE TABLE a (k INT, v INT)")
        cluster.sql("INSERT INTO a VALUES (1, 10), (1, 11)")
        cluster.sql("CREATE TABLE b (k INT, w INT)")
        cluster.sql("INSERT INTO b VALUES (1, 20), (1, 21)")
        result = cluster.sql("SELECT a.v, b.w FROM a JOIN b ON a.k = b.k")
        assert len(result) == 4

    def test_empty_result_join(self, join_cluster):
        result = join_cluster.sql(
            "SELECT u.name FROM users u JOIN orders o ON u.region = o.oid"
        )
        assert len(result) == 0


class TestLeftJoin:
    def test_unmatched_left_rows_survive_with_nulls(self, join_cluster):
        rows = join_cluster.sql(
            "SELECT u.name, o.amount FROM users u LEFT JOIN orders o "
            "ON u.uid = o.uid ORDER BY u.name"
        ).rows()
        names = [r[0] for r in rows]
        assert names == ["ann", "ann", "bob", "cat", "dan"]
        unmatched = [r[1] for r in rows if r[0] in ("cat", "dan")]
        assert all(np.isnan(v) for v in unmatched)

    def test_varchar_nulls_are_none(self, join_cluster):
        rows = join_cluster.sql(
            "SELECT o.oid, u.name FROM orders o LEFT JOIN users u "
            "ON o.uid = u.uid ORDER BY o.oid"
        ).rows()
        assert rows[-1][0] == 103  # the order with no user
        assert rows[-1][1] is None

    def test_count_over_left_join(self, join_cluster):
        total = join_cluster.sql(
            "SELECT COUNT(*) FROM users u LEFT JOIN orders o ON u.uid = o.uid"
        ).scalar()
        assert total == 5  # 3 matches + 2 unmatched users


class TestJoinErrors:
    def test_non_equi_only_condition_rejected(self, join_cluster):
        with pytest.raises(SqlAnalysisError, match="equality"):
            join_cluster.sql(
                "SELECT u.name FROM users u JOIN orders o ON u.uid > o.uid"
            )

    def test_on_clause_type_error_raises_before_any_scan(self, join_cluster):
        scanned = join_cluster.metrics.counter("rows_scanned").value
        with pytest.raises(SemanticError, match="SA201"):
            join_cluster.sql(
                "SELECT u.name FROM users u JOIN orders o "
                "ON u.uid = o.uid AND o.amount = 'x'"
            )
        assert join_cluster.metrics.counter("rows_scanned").value == scanned

    def test_colliding_output_names_rejected(self, join_cluster):
        # Results are keyed by output name: this used to return o.uid twice.
        with pytest.raises(SemanticError, match="SA303.*alias"):
            join_cluster.sql(
                "SELECT u.uid, o.uid FROM users u JOIN orders o "
                "ON u.uid = o.uid"
            )

    def test_unknown_qualifier(self, join_cluster):
        with pytest.raises(SqlAnalysisError, match="qualifier"):
            join_cluster.sql(
                "SELECT z.name FROM users u JOIN orders o ON u.uid = o.uid"
            )

    def test_unknown_column_on_side(self, join_cluster):
        with pytest.raises(SqlAnalysisError):
            join_cluster.sql(
                "SELECT u.salary FROM users u JOIN orders o ON u.uid = o.uid"
            )

    def test_same_alias_rejected(self, join_cluster):
        with pytest.raises(SqlAnalysisError, match="distinct"):
            join_cluster.sql(
                "SELECT t.name FROM users t JOIN orders t ON t.uid = t.uid"
            )

    def test_r_models_not_joinable(self, join_cluster):
        with pytest.raises(SqlAnalysisError, match="R_Models"):
            join_cluster.sql(
                "SELECT u.name FROM users u JOIN R_Models m ON u.name = m.model"
            )

    def test_udtf_over_join_rejected(self, join_cluster):
        with pytest.raises(SqlAnalysisError, match="UDTF"):
            join_cluster.sql(
                "SELECT glmPredict(u.region USING PARAMETERS model='m') "
                "OVER (PARTITION BEST) FROM users u JOIN orders o "
                "ON u.uid = o.uid"
            )


class TestJoinScale:
    def test_large_join_matches_numpy(self):
        rng = np.random.default_rng(44)
        n = 5000
        cluster = VerticaCluster(node_count=3)
        left_keys = rng.integers(0, 500, n)
        left_values = rng.normal(size=n)
        cluster.create_table_like("facts", {"k": left_keys, "v": left_values})
        cluster.bulk_load("facts", {"k": left_keys, "v": left_values})
        dim_keys = np.arange(400)
        dim_weights = rng.normal(size=400)
        cluster.create_table_like("dim", {"k": dim_keys, "w": dim_weights})
        cluster.bulk_load("dim", {"k": dim_keys, "w": dim_weights})

        total = cluster.sql(
            "SELECT SUM(f.v * d.w) FROM facts f JOIN dim d ON f.k = d.k"
        ).scalar()
        mask = left_keys < 400
        expected = float(np.sum(left_values[mask] * dim_weights[left_keys[mask]]))
        assert total == pytest.approx(expected, rel=1e-9)

    def test_join_row_count_matches_numpy(self):
        rng = np.random.default_rng(45)
        cluster = VerticaCluster(node_count=2)
        a = rng.integers(0, 50, 1000)
        b = rng.integers(0, 50, 800)
        cluster.create_table_like("ta", {"k": a})
        cluster.bulk_load("ta", {"k": a})
        cluster.create_table_like("tb", {"k": b})
        cluster.bulk_load("tb", {"k": b})
        count = cluster.sql(
            "SELECT COUNT(*) FROM ta x JOIN tb y ON x.k = y.k"
        ).scalar()
        counts_a = np.bincount(a, minlength=50)
        counts_b = np.bincount(b, minlength=50)
        assert count == int(np.sum(counts_a * counts_b))


class TestJoinReadsThroughScanSources:
    """Join inputs use the per-node scan sources like every other read:
    buddy failover, clean node-down errors, and scan telemetry."""

    QUERY = ("SELECT COUNT(*) AS n, SUM(x.v) AS s "
             "FROM ta x JOIN tb y ON x.k = y.k")

    @staticmethod
    def _cluster(k_safety: int) -> VerticaCluster:
        rng = np.random.default_rng(46)
        a = {"k": rng.integers(0, 50, 300), "v": rng.integers(0, 9, 300)}
        b = {"k": rng.integers(0, 50, 200)}
        cluster = VerticaCluster(node_count=3)
        cluster.create_table_like("ta", a, k_safety=k_safety)
        cluster.bulk_load("ta", a)
        cluster.create_table_like("tb", b, k_safety=k_safety)
        cluster.bulk_load("tb", b)
        return cluster

    def test_failed_node_with_k_safety_reads_the_buddy(self):
        expected = self._cluster(k_safety=1).sql(self.QUERY).rows()
        cluster = self._cluster(k_safety=1)
        cluster.fail_node(1)
        before = cluster.metrics.counter("buddy_scans").value
        assert cluster.sql(self.QUERY).rows() == expected
        # One failover per input table.
        assert cluster.metrics.counter("buddy_scans").value == before + 2

    def test_failed_node_without_k_safety_raises(self):
        from repro.errors import NodeDownError

        cluster = self._cluster(k_safety=0)
        cluster.fail_node(1)
        with pytest.raises(NodeDownError):
            cluster.sql(self.QUERY)

    def test_join_charges_both_inputs_to_scan_telemetry(self):
        cluster = self._cluster(k_safety=0)
        rows_scanned = cluster.metrics.counter("rows_scanned")
        bytes_scanned = cluster.metrics.counter("bytes_scanned")
        rows, nbytes = rows_scanned.value, bytes_scanned.value
        cluster.sql("SELECT COUNT(*) FROM ta x JOIN tb y ON x.k = y.k")
        # Only the int64 key column of each side is read: 300 + 200 rows.
        assert rows_scanned.value - rows == 500
        assert bytes_scanned.value - nbytes == 500 * 8
