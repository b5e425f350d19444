"""Tests for DISTINCT / IN / LIKE and table k-safety."""

import numpy as np
import pytest

from repro.dr import start_session
from repro.errors import (
    CatalogError,
    ExecutionError,
    SqlAnalysisError,
    SqlSyntaxError,
)
from repro.transfer import db2darray
from repro.vertica import HashSegmentation, VerticaCluster


@pytest.fixture
def fruit_cluster():
    cluster = VerticaCluster(node_count=3)
    cluster.sql("CREATE TABLE t (a INT, s VARCHAR)")
    cluster.sql("INSERT INTO t VALUES (1,'apple'),(2,'banana'),(1,'apple'),"
                "(3,'apricot'),(2,'cherry')")
    return cluster


class TestSelectDistinct:
    def test_single_column(self, fruit_cluster):
        rows = fruit_cluster.sql("SELECT DISTINCT a FROM t ORDER BY a").rows()
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_multi_column_pairs(self, fruit_cluster):
        rows = sorted(fruit_cluster.sql("SELECT DISTINCT a, s FROM t").rows())
        assert rows == [(1, "apple"), (2, "banana"), (2, "cherry"),
                        (3, "apricot")]

    def test_distinct_with_where_and_limit(self, fruit_cluster):
        rows = fruit_cluster.sql(
            "SELECT DISTINCT a FROM t WHERE a < 3 ORDER BY a LIMIT 1").rows()
        assert rows == [(1,)]

    def test_distinct_expression(self, fruit_cluster):
        rows = fruit_cluster.sql(
            "SELECT DISTINCT a % 2 AS parity FROM t ORDER BY parity").rows()
        assert [r[0] for r in rows] == [0, 1]

    def test_distinct_with_group_by_rejected(self, fruit_cluster):
        with pytest.raises(SqlAnalysisError):
            fruit_cluster.sql("SELECT DISTINCT COUNT(*) FROM t GROUP BY a")


class TestInAndLike:
    def test_in_list(self, fruit_cluster):
        count = fruit_cluster.sql(
            "SELECT COUNT(*) FROM t WHERE a IN (1, 3)").scalar()
        assert count == 3

    def test_not_in(self, fruit_cluster):
        count = fruit_cluster.sql(
            "SELECT COUNT(*) FROM t WHERE a NOT IN (1, 3)").scalar()
        assert count == 2

    def test_in_strings(self, fruit_cluster):
        count = fruit_cluster.sql(
            "SELECT COUNT(*) FROM t WHERE s IN ('apple', 'cherry')").scalar()
        assert count == 3

    def test_like_prefix(self, fruit_cluster):
        rows = fruit_cluster.sql(
            "SELECT DISTINCT s FROM t WHERE s LIKE 'ap%' ORDER BY s").rows()
        assert [r[0] for r in rows] == ["apple", "apricot"]

    def test_like_underscore(self, fruit_cluster):
        rows = fruit_cluster.sql("SELECT s FROM t WHERE s LIKE '_anana'").rows()
        assert rows == [("banana",)]

    def test_not_like(self, fruit_cluster):
        count = fruit_cluster.sql(
            "SELECT COUNT(*) FROM t WHERE s NOT LIKE 'a%'").scalar()
        assert count == 2

    def test_like_escapes_regex_metacharacters(self):
        cluster = VerticaCluster(node_count=2)
        cluster.sql("CREATE TABLE t (s VARCHAR)")
        cluster.sql("INSERT INTO t VALUES ('a.b'), ('axb')")
        rows = cluster.sql("SELECT s FROM t WHERE s LIKE 'a.b'").rows()
        assert rows == [("a.b",)]  # '.' is literal, not a regex wildcard

    def test_like_requires_string_pattern(self, fruit_cluster):
        with pytest.raises(SqlSyntaxError):
            fruit_cluster.sql("SELECT s FROM t WHERE s LIKE 5")

    def test_bare_not_without_in_or_like(self, fruit_cluster):
        with pytest.raises(SqlSyntaxError):
            fruit_cluster.sql("SELECT s FROM t WHERE a NOT 5")


class TestKSafety:
    def make_cluster(self, k_safety=1, nodes=3):
        cluster = VerticaCluster(node_count=nodes)
        rng = np.random.default_rng(60)
        columns = {"k": rng.integers(0, 10**6, 1200),
                   "v": rng.normal(size=1200)}
        cluster.create_table_like("t", columns, HashSegmentation("k"),
                                  k_safety=k_safety)
        cluster.bulk_load("t", columns)
        return cluster, columns

    def test_scan_survives_single_node_failure(self):
        cluster, columns = self.make_cluster()
        expected_sum = columns["v"].sum()
        cluster.fail_node(1)
        assert cluster.sql("SELECT COUNT(*) FROM t").scalar() == 1200
        assert cluster.sql("SELECT SUM(v) FROM t").scalar() == pytest.approx(
            expected_sum)
        assert cluster.metrics.counter("buddy_scans").value > 0

    def test_double_failure_is_loud(self):
        cluster, _ = self.make_cluster()
        cluster.fail_node(1)
        cluster.fail_node(2)  # node 2 hosts node 1's buddy
        with pytest.raises(ExecutionError, match="both down"):
            cluster.sql("SELECT COUNT(*) FROM t")

    def test_recovery_restores_primary_path(self):
        cluster, _ = self.make_cluster()
        cluster.fail_node(0)
        cluster.sql("SELECT COUNT(*) FROM t")
        cluster.recover_node(0)
        before = cluster.metrics.counter("buddy_scans").value
        cluster.sql("SELECT COUNT(*) FROM t")
        assert cluster.metrics.counter("buddy_scans").value == before

    def test_unprotected_table_fails_hard(self):
        cluster, _ = self.make_cluster(k_safety=0)
        cluster.fail_node(0)
        with pytest.raises(ExecutionError, match="k_safety"):
            cluster.sql("SELECT COUNT(*) FROM t")

    def test_odbc_range_fetch_fails_over(self):
        cluster, _ = self.make_cluster()
        cluster.fail_node(2)
        out = cluster.connect().fetch_row_range("t", ["v"], 0, 1200)
        assert len(out["v"]) == 1200

    def test_vft_transfer_fails_over(self):
        cluster, _ = self.make_cluster()
        cluster.fail_node(0)
        with start_session(node_count=3, instances_per_node=1) as session:
            array = db2darray(cluster, "t", ["v"], session)
            assert array.nrow == 1200

    def test_invalid_k_safety(self):
        cluster = VerticaCluster(node_count=3)
        with pytest.raises(CatalogError):
            cluster.create_table_like("t", {"v": np.arange(3)}, k_safety=2)
        single = VerticaCluster(node_count=1)
        with pytest.raises(CatalogError):
            single.create_table_like("t", {"v": np.arange(3)}, k_safety=1)

    def test_ksafety_doubles_storage(self):
        plain_cluster, _ = self.make_cluster(k_safety=0)
        safe_cluster, _ = self.make_cluster(k_safety=1)
        plain = plain_cluster.catalog.get_table("t")
        safe = safe_cluster.catalog.get_table("t")
        safe_total = (sum(s.compressed_size for s in safe.segments)
                      + sum(s.compressed_size for s in safe.buddy_segments))
        plain_total = sum(s.compressed_size for s in plain.segments)
        assert safe_total == pytest.approx(2 * plain_total, rel=0.01)
