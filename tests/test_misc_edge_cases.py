"""Remaining edge cases: joins with empty inputs, harness CLI."""

import numpy as np
import pytest

from repro.harness.__main__ import main as harness_main
from repro.vertica import VerticaCluster


class TestJoinEmptyInputs:
    def make_tables(self, left_rows, right_rows):
        cluster = VerticaCluster(node_count=2)
        cluster.sql("CREATE TABLE l (k INT, v FLOAT)")
        cluster.sql("CREATE TABLE r (k INT, w FLOAT)")
        for i in range(left_rows):
            cluster.sql(f"INSERT INTO l VALUES ({i}, {float(i)})")
        for i in range(right_rows):
            cluster.sql(f"INSERT INTO r VALUES ({i}, {float(i) * 10})")
        return cluster

    def test_inner_join_empty_right(self):
        cluster = self.make_tables(3, 0)
        assert len(cluster.sql(
            "SELECT a.v FROM l a JOIN r b ON a.k = b.k")) == 0

    def test_left_join_empty_right_keeps_left(self):
        cluster = self.make_tables(3, 0)
        result = cluster.sql(
            "SELECT a.v, b.w FROM l a LEFT JOIN r b ON a.k = b.k ORDER BY a.v")
        assert len(result) == 3
        # Output labels follow SQL convention: the bare column name.
        assert all(np.isnan(v) for v in result.column("w"))

    def test_inner_join_empty_left(self):
        cluster = self.make_tables(0, 3)
        assert len(cluster.sql(
            "SELECT b.w FROM l a JOIN r b ON a.k = b.k")) == 0

    def test_both_empty(self):
        cluster = self.make_tables(0, 0)
        assert len(cluster.sql(
            "SELECT a.v FROM l a LEFT JOIN r b ON a.k = b.k")) == 0

    def test_aggregate_over_empty_join(self):
        cluster = self.make_tables(3, 0)
        assert cluster.sql(
            "SELECT COUNT(*) FROM l a JOIN r b ON a.k = b.k").scalar() == 0


class TestHarnessCli:
    def test_cli_runs_and_writes(self, tmp_path, capsys):
        output = tmp_path / "EXPERIMENTS.md"
        code = harness_main(["--skip-functional", "--write", str(output)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Fig 21" in printed
        assert output.exists()
        assert "Calibration provenance" in output.read_text()

    def test_cli_without_write(self, capsys):
        assert harness_main(["--skip-functional"]) == 0
        assert "Fig 12" in capsys.readouterr().out
