"""Edge-case tests for the SQL executor and result sets."""

import numpy as np
import pytest

from repro.errors import ExecutionError, SemanticError, SqlAnalysisError
from repro.vertica import VerticaCluster


@pytest.fixture
def typed_cluster():
    cluster = VerticaCluster(node_count=2)
    cluster.sql("CREATE TABLE t (n INT, f FLOAT, s VARCHAR, b BOOLEAN)")
    cluster.sql(
        "INSERT INTO t VALUES "
        "(3, 1.5, 'cherry', TRUE), (1, -0.5, 'apple', FALSE), "
        "(2, 2.5, 'banana', TRUE), (-1, 0.0, 'date', FALSE)"
    )
    return cluster


class TestOrderingEdgeCases:
    def test_order_by_string_column(self, typed_cluster):
        rows = typed_cluster.sql("SELECT s FROM t ORDER BY s").rows()
        assert [r[0] for r in rows] == ["apple", "banana", "cherry", "date"]

    def test_order_by_string_desc(self, typed_cluster):
        rows = typed_cluster.sql("SELECT s FROM t ORDER BY s DESC").rows()
        assert [r[0] for r in rows] == ["date", "cherry", "banana", "apple"]

    def test_order_by_expression_not_in_select(self, typed_cluster):
        rows = typed_cluster.sql("SELECT s FROM t ORDER BY n * -1").rows()
        assert [r[0] for r in rows] == ["cherry", "banana", "apple", "date"]

    def test_order_by_boolean(self, typed_cluster):
        rows = typed_cluster.sql("SELECT b FROM t ORDER BY b, n").rows()
        values = [bool(r[0]) for r in rows]
        assert values == [False, False, True, True]

    def test_stable_multi_key_sort(self, typed_cluster):
        rows = typed_cluster.sql("SELECT b, n FROM t ORDER BY b DESC, n ASC").rows()
        assert [int(r[1]) for r in rows] == [2, 3, -1, 1]


class TestLimitEdgeCases:
    def test_limit_zero(self, typed_cluster):
        assert len(typed_cluster.sql("SELECT n FROM t LIMIT 0")) == 0

    def test_limit_larger_than_table(self, typed_cluster):
        assert len(typed_cluster.sql("SELECT n FROM t LIMIT 999")) == 4

    def test_limit_applies_after_order(self, typed_cluster):
        rows = typed_cluster.sql("SELECT n FROM t ORDER BY n DESC LIMIT 2").rows()
        assert [int(r[0]) for r in rows] == [3, 2]


class TestWhereEdgeCases:
    def test_where_matches_nothing(self, typed_cluster):
        result = typed_cluster.sql("SELECT n FROM t WHERE n > 1000")
        assert len(result) == 0

    def test_where_on_boolean_column(self, typed_cluster):
        assert typed_cluster.sql("SELECT COUNT(*) FROM t WHERE b").scalar() == 2
        assert typed_cluster.sql("SELECT COUNT(*) FROM t WHERE NOT b").scalar() == 2

    def test_where_constant_true(self, typed_cluster):
        assert typed_cluster.sql("SELECT COUNT(*) FROM t WHERE 1 = 1").scalar() == 4

    def test_where_constant_false(self, typed_cluster):
        assert typed_cluster.sql("SELECT COUNT(*) FROM t WHERE 1 = 2").scalar() == 0

    def test_aggregate_in_where_rejected(self, typed_cluster):
        with pytest.raises(SqlAnalysisError):
            typed_cluster.sql("SELECT n FROM t WHERE COUNT(*) > 1")


class TestAggregateEdgeCases:
    def test_min_max_on_strings(self, typed_cluster):
        row = typed_cluster.sql("SELECT MIN(s), MAX(s) FROM t").rows()[0]
        assert row == ("apple", "date")

    def test_sum_on_empty_filter_is_null(self, typed_cluster):
        value = typed_cluster.sql("SELECT SUM(n) FROM t WHERE n > 99").scalar()
        assert value is None or (isinstance(value, float) and np.isnan(value))

    def test_count_on_empty_filter_is_zero(self, typed_cluster):
        assert typed_cluster.sql("SELECT COUNT(*) FROM t WHERE n > 99").scalar() == 0

    def test_group_by_string(self, typed_cluster):
        rows = typed_cluster.sql(
            "SELECT b, COUNT(*) AS c FROM t GROUP BY b ORDER BY c, b"
        ).rows()
        assert len(rows) == 2

    def test_avg_of_mixed_sign(self, typed_cluster):
        value = typed_cluster.sql("SELECT AVG(n) FROM t").scalar()
        assert value == pytest.approx((3 + 1 + 2 - 1) / 4)


@pytest.fixture
def null_cluster():
    """Five rows with NULLs.  INSERT keeps VARCHAR NULLs (in the WOS)."""
    cluster = VerticaCluster(node_count=2)
    cluster.sql("CREATE TABLE t (k INT, x FLOAT, s VARCHAR)")
    cluster.sql("INSERT INTO t VALUES (1, 1.0, 'a'), (2, NULL, NULL), "
                "(3, 2.0, 'b'), (4, 3.0, NULL), (5, 2.0, 'a')")
    cluster.sql("CREATE TABLE d (k INT, r VARCHAR)")
    cluster.sql("INSERT INTO d VALUES (1, 'x'), (3, 'y')")
    return cluster


class TestNullAggregation:
    """Aggregates skip NULLs (None in object columns, NaN in float ones);
    NULL keys form one group, which sorts after every other key."""

    def test_count_and_avg_skip_nulls(self, null_cluster):
        row = null_cluster.sql(
            "SELECT COUNT(x) AS cx, COUNT(s) AS cs, AVG(x) AS a, "
            "COUNT(*) AS n FROM t").rows()[0]
        assert row == (4, 3, 2.0, 5)

    def test_group_by_varchar_with_null(self, null_cluster):
        rows = null_cluster.sql(
            "SELECT s, COUNT(*) AS n, SUM(x) AS x FROM t GROUP BY s").rows()
        assert rows == [("a", 2, 3.0), ("b", 1, 2.0), (None, 2, 3.0)]

    def test_having_over_null_group(self, null_cluster):
        rows = null_cluster.sql(
            "SELECT s, COUNT(*) AS n FROM t GROUP BY s "
            "HAVING COUNT(*) > 1").rows()
        assert rows == [("a", 2), (None, 2)]

    def test_multi_key_group_by_with_nulls(self, null_cluster):
        rows = null_cluster.sql(
            "SELECT s, x, COUNT(*) AS n FROM t GROUP BY s, x").rows()
        assert [(s, None if x != x else x, n) for s, x, n in rows] == [
            ("a", 1.0, 1), ("a", 2.0, 1), ("b", 2.0, 1),
            (None, 3.0, 1), (None, None, 1)]

    def test_min_max_varchar_skip_nulls(self, null_cluster):
        row = null_cluster.sql("SELECT MIN(s) AS lo, MAX(s) AS hi FROM t").rows()[0]
        assert row == ("a", "b")

    def test_all_null_group_aggregates_to_null(self, null_cluster):
        rows = null_cluster.sql(
            "SELECT k, COUNT(x) AS c, SUM(x) AS s, AVG(x) AS a, MIN(s) AS m "
            "FROM t WHERE k = 2 GROUP BY k").rows()
        assert rows == [(2, 0, None, None, None)]

    def test_null_group_sorts_first_under_desc(self, null_cluster):
        rows = null_cluster.sql(
            "SELECT s, COUNT(*) AS n FROM t GROUP BY s ORDER BY s DESC").rows()
        assert [s for s, _ in rows] == [None, "b", "a"]

    def test_left_join_null_keys_and_values(self, null_cluster):
        rows = null_cluster.sql(
            "SELECT d.r, COUNT(*) AS n, COUNT(d.r) AS c, MIN(d.r) AS lo "
            "FROM t LEFT JOIN d ON t.k = d.k GROUP BY d.r").rows()
        assert rows == [("x", 1, 1, "x"), ("y", 1, 1, "y"), (None, 3, 0, None)]


class TestFloatSumOrder:
    """A float SUM adds each node's rows in scan order (row groups in load
    order), then the node totals in node index order; AVG divides that sum.
    Round-robin segmentation puts row ``i`` of a load on node ``i % 3``."""

    # Node 1 adds 1e16 + 1 + 1 (= 1e16, while 1 + 1 + 1e16 = 1e16 + 2), and
    # the node totals 1, 1e16, -1e16 sum to 0 forward but 1 backward.
    VALUES = [[1.0, 1e16, -1e16], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]

    def _cluster(self):
        cluster = VerticaCluster(node_count=3)
        values = np.array(self.VALUES)   # row = load, column = node
        groups = np.arange(3) % 2
        cluster.create_table_like("t", {"g": groups, "v": values[0]})
        for load in values:
            cluster.bulk_load("t", {"g": groups, "v": load})
        return cluster, values, groups

    @staticmethod
    def _fold(values: np.ndarray) -> float:
        """Node-index-then-scan-order fold of ``values[load, node]``."""
        total = 0.0
        for node in range(values.shape[1]):
            node_total = 0.0
            for value in values[:, node]:
                node_total += value
            total += node_total
        return total

    def test_sum_and_avg_fold_in_node_then_batch_order(self):
        cluster, values, _ = self._cluster()
        expected = self._fold(values)
        # The data is order-sensitive: other fold orders give other bits.
        assert expected != self._fold(values[:, ::-1])
        assert expected != self._fold(values[::-1])
        row = cluster.sql("SELECT SUM(v) AS s, AVG(v) AS a FROM t").rows()[0]
        assert row[0].hex() == expected.hex()
        assert row[1].hex() == (expected / values.size).hex()

    def test_grouped_sum_folds_in_node_then_batch_order(self):
        cluster, values, groups = self._cluster()
        rows = cluster.sql("SELECT g, SUM(v) AS s FROM t GROUP BY g").rows()
        expected = [self._fold(values[:, groups == g]) for g in (0, 1)]
        assert [s.hex() for _, s in rows] == [e.hex() for e in expected]


class TestResultSetEdgeCases:
    def test_rows_preserve_column_order(self, typed_cluster):
        result = typed_cluster.sql("SELECT f, n, s FROM t LIMIT 1")
        assert result.column_names == ["f", "n", "s"]

    def test_unknown_column_access(self, typed_cluster):
        result = typed_cluster.sql("SELECT n FROM t")
        with pytest.raises(ExecutionError, match="columns"):
            result.column("zzz")

    def test_colliding_output_names_rejected(self, typed_cluster):
        # Results are keyed by output name: this used to return f twice.
        with pytest.raises(SemanticError, match="SA303.*alias"):
            typed_cluster.sql("SELECT n AS x, f AS x FROM t")

    def test_projection_of_constant(self, typed_cluster):
        result = typed_cluster.sql("SELECT 42 AS answer FROM t")
        assert list(result.column("answer")) == [42] * 4

    def test_string_concat_projection(self, typed_cluster):
        result = typed_cluster.sql("SELECT s || '!' AS shout FROM t ORDER BY s LIMIT 1")
        assert result.rows() == [("apple!",)]
