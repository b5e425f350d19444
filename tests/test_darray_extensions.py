"""Tests for the ODBC wire-format string escaping."""

import numpy as np

from repro.vertica import VerticaCluster


class TestOdbcStringEscaping:
    def test_tabs_newlines_backslashes_roundtrip(self):
        cluster = VerticaCluster(node_count=2)
        cluster.sql("CREATE TABLE t (id INT, s VARCHAR)")
        tricky = ["tab\there", "line\nbreak", "back\\slash", "plain",
                  "mix\t\n\\all"]
        table = cluster.catalog.get_table("t")
        table.insert({"id": np.arange(5),
                      "s": np.asarray(tricky, dtype=object)})
        rows = cluster.connect().execute(
            "SELECT s FROM t ORDER BY id").fetchall()
        assert [r[0] for r in rows] == tricky

    def test_range_fetch_escaping(self):
        cluster = VerticaCluster(node_count=2)
        cluster.sql("CREATE TABLE t (s VARCHAR)")
        cluster.sql("INSERT INTO t VALUES ('a\tb')") if False else None
        table = cluster.catalog.get_table("t")
        table.insert({"s": np.asarray(["x\ty", "p\nq"], dtype=object)})
        out = cluster.connect().fetch_row_range("t", ["s"], 0, 2)
        assert sorted(out["s"]) == ["p\nq", "x\ty"]
