"""Tests for zone-map predicate pushdown (row-group pruning)."""

import numpy as np
import pytest

from repro.vertica import VerticaCluster
from repro.vertica.pruning import ColumnRange, extract_column_ranges
from repro.vertica.sql import parse_expression
from tests.conftest import OnDisk


def ranges_of(text: str) -> dict[str, ColumnRange]:
    return extract_column_ranges(parse_expression(text))


class TestRangeExtraction:
    def test_simple_bounds(self):
        ranges = ranges_of("ts >= 10 AND ts < 20")
        assert ranges["ts"].low == 10
        assert ranges["ts"].high == 20

    def test_equality(self):
        ranges = ranges_of("k = 7")
        assert ranges["k"].low == ranges["k"].high == 7

    def test_mirrored_orientation(self):
        ranges = ranges_of("100 > ts AND 10 <= ts")
        assert ranges["ts"].low == 10
        assert ranges["ts"].high == 100

    def test_between_desugars_to_range(self):
        ranges = ranges_of("x BETWEEN 5 AND 9")
        assert ranges["x"].low == 5
        assert ranges["x"].high == 9

    def test_in_list_envelope(self):
        ranges = ranges_of("k IN (3, 9, 5)")
        assert ranges["k"].low == 3
        assert ranges["k"].high == 9

    def test_tightest_bound_wins(self):
        ranges = ranges_of("x > 1 AND x > 5 AND x < 100 AND x < 50")
        assert ranges["x"].low == 5
        assert ranges["x"].high == 50

    def test_negative_literals(self):
        ranges = ranges_of("x >= -10")
        assert ranges["x"].low == -10

    def test_or_contributes_nothing(self):
        assert ranges_of("x > 5 OR y < 3") == {}

    def test_cross_column_comparison_ignored(self):
        assert ranges_of("x > y") == {}

    def test_string_comparison_ignored(self):
        assert ranges_of("s = 'hello'") == {}

    def test_multiple_columns(self):
        ranges = ranges_of("a > 1 AND b < 2 AND s = 'x'")
        assert set(ranges) == {"a", "b"}

    def test_none_where(self):
        assert extract_column_ranges(None) == {}


@pytest.fixture
def clustered_cluster(data_dir):
    """A table loaded in sorted batches: tight per-rowgroup zone maps."""
    cluster = VerticaCluster(node_count=2, data_dir=data_dir)
    cluster.sql("CREATE TABLE events (ts INT, v FLOAT)")
    for start in range(0, 50_000, 5_000):
        ts = np.arange(start, start + 5_000)
        cluster.bulk_load("events", {"ts": ts, "v": ts * 0.5})
    return cluster


class TestPruningExecution:
    def test_selective_query_prunes(self, clustered_cluster):
        result = clustered_cluster.sql(
            "SELECT COUNT(*) FROM events WHERE ts >= 45000")
        assert result.scalar() == 5_000
        assert clustered_cluster.metrics.counter("rowgroups_pruned").value > 0

    def test_results_identical_with_and_without_pruning(self, clustered_cluster):
        query = ("SELECT SUM(v) FROM events "
                 "WHERE ts BETWEEN 12000 AND 17999")
        pruned = clustered_cluster.sql(query).scalar()
        expected = float((np.arange(12_000, 18_000) * 0.5).sum())
        assert pruned == pytest.approx(expected)

    def test_full_scan_prunes_nothing(self, clustered_cluster):
        before = clustered_cluster.metrics.counter("rowgroups_pruned").value
        clustered_cluster.sql("SELECT COUNT(*) FROM events")
        assert clustered_cluster.metrics.counter("rowgroups_pruned").value == before

    def test_impossible_predicate_prunes_everything(self, clustered_cluster):
        assert clustered_cluster.sql(
            "SELECT COUNT(*) FROM events WHERE ts > 10000000").scalar() == 0
        # every row group on every node skipped
        assert clustered_cluster.metrics.counter("rowgroups_pruned").value >= 10

    def test_pruning_on_unprojected_column(self, clustered_cluster):
        """The constrained column need not be in the SELECT list."""
        result = clustered_cluster.sql(
            "SELECT AVG(v) FROM events WHERE ts < 5000")
        assert result.scalar() == pytest.approx(
            float((np.arange(5_000) * 0.5).mean()))

    def test_or_predicate_still_correct(self, clustered_cluster):
        count = clustered_cluster.sql(
            "SELECT COUNT(*) FROM events WHERE ts < 100 OR ts >= 49900"
        ).scalar()
        assert count == 200

    def test_unclustered_data_prunes_little_but_stays_correct(self, data_dir):
        cluster = VerticaCluster(node_count=2, data_dir=data_dir)
        rng = np.random.default_rng(80)
        values = rng.permutation(30_000)
        cluster.sql("CREATE TABLE shuffled (x INT)")
        for start in range(0, 30_000, 5_000):
            cluster.bulk_load("shuffled", {"x": values[start:start + 5_000]})
        count = cluster.sql(
            "SELECT COUNT(*) FROM shuffled WHERE x < 1000").scalar()
        assert count == 1_000  # zone maps overlap everywhere: no wrong answers


class TestPruningExecutionOnDisk(OnDisk, TestPruningExecution):
    """Zone maps read from segment files prune exactly like in-memory ones."""
