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
