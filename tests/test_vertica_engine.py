"""Tests for segmentation, tables, SQL execution, ODBC, DFS, and R_Models."""

import numpy as np
import pytest

from repro.errors import (
    CatalogError,
    DfsError,
    ExecutionError,
    PermissionDeniedError,
    SqlAnalysisError,
)
from repro.storage import ColumnSchema, SqlType
from repro.vertica import (
    HashSegmentation,
    NodeResources,
    RoundRobinSegmentation,
    SkewedSegmentation,
    Unsegmented,
    VerticaCluster,
)
from repro.vertica.models import ModelRecord, Privilege
from repro.vertica.segmentation import hash64
from repro.vertica.table import ROWID_COLUMN


class TestSegmentation:
    def test_hash64_deterministic(self):
        values = np.arange(100)
        assert np.array_equal(hash64(values), hash64(values))

    def test_hash64_strings_stable(self):
        a = hash64(np.array(["alpha", "beta"], dtype=object))
        b = hash64(np.array(["alpha", "beta"], dtype=object))
        assert np.array_equal(a, b)

    def test_hash_spreads_uniformly(self):
        values = np.arange(30_000)
        nodes = hash64(values) % np.uint64(3)
        counts = np.bincount(nodes.astype(int), minlength=3)
        assert counts.min() > 9_000

    def test_hash_segmentation_routes_equal_keys_together(self):
        scheme = HashSegmentation("k")
        batch = {"k": np.array([5, 5, 5, 9, 9])}
        assignment = scheme.assign(batch, 5, 0, 4)
        assert len(set(assignment[:3].tolist())) == 1
        assert len(set(assignment[3:].tolist())) == 1

    def test_hash_segmentation_missing_column(self):
        with pytest.raises(CatalogError):
            HashSegmentation("k").assign({"x": np.arange(3)}, 3, 0, 2)

    def test_round_robin_exact(self):
        scheme = RoundRobinSegmentation()
        assignment = scheme.assign({}, 6, 0, 3)
        assert list(assignment) == [0, 1, 2, 0, 1, 2]

    def test_round_robin_continues_from_offset(self):
        scheme = RoundRobinSegmentation()
        assignment = scheme.assign({}, 3, 4, 3)
        assert list(assignment) == [1, 2, 0]

    def test_skewed_proportions(self):
        scheme = SkewedSegmentation(weights=(4.0, 1.0, 1.0))
        assignment = scheme.assign({}, 60_000, 0, 3)
        counts = np.bincount(assignment, minlength=3)
        assert counts[0] > 2.5 * counts[1]
        assert counts[0] > 2.5 * counts[2]

    def test_skewed_requires_positive_weights(self):
        with pytest.raises(CatalogError):
            SkewedSegmentation(weights=(1.0, 0.0))

    def test_skewed_weight_count_must_match(self):
        scheme = SkewedSegmentation(weights=(1.0, 1.0))
        with pytest.raises(CatalogError):
            scheme.assign({}, 10, 0, 3)

    def test_unsegmented_single_node(self):
        scheme = Unsegmented(node=1)
        assignment = scheme.assign({}, 5, 0, 3)
        assert set(assignment.tolist()) == {1}


class TestTable:
    def test_create_and_load(self, cluster):
        table = cluster.create_table("t", [
            ColumnSchema("a", SqlType.INTEGER),
            ColumnSchema("b", SqlType.FLOAT),
        ])
        inserted = cluster.bulk_load("t", {"a": np.arange(10), "b": np.ones(10)})
        assert inserted == 10
        assert table.row_count == 10
        assert sum(table.segment_row_counts()) == 10

    def test_duplicate_table_rejected(self, cluster):
        cluster.create_table("t", [ColumnSchema("a", SqlType.INTEGER)])
        with pytest.raises(CatalogError):
            cluster.create_table("T", [ColumnSchema("a", SqlType.INTEGER)])

    def test_reserved_rowid_column(self, cluster):
        with pytest.raises(CatalogError):
            cluster.create_table("t", [ColumnSchema(ROWID_COLUMN, SqlType.INTEGER)])

    def test_reserved_r_models_name(self, cluster):
        with pytest.raises(CatalogError):
            cluster.create_table("R_Models", [ColumnSchema("a", SqlType.INTEGER)])

    def test_missing_column_on_insert(self, cluster):
        cluster.create_table("t", [
            ColumnSchema("a", SqlType.INTEGER),
            ColumnSchema("b", SqlType.FLOAT),
        ])
        with pytest.raises(CatalogError, match="missing"):
            cluster.bulk_load("t", {"a": np.arange(3)})

    def test_unknown_column_on_insert(self, cluster):
        cluster.create_table("t", [ColumnSchema("a", SqlType.INTEGER)])
        with pytest.raises(CatalogError, match="unknown"):
            cluster.bulk_load("t", {"a": np.arange(3), "z": np.arange(3)})

    def test_ragged_insert_rejected(self, cluster):
        cluster.create_table("t", [
            ColumnSchema("a", SqlType.INTEGER),
            ColumnSchema("b", SqlType.FLOAT),
        ])
        with pytest.raises(CatalogError, match="ragged"):
            cluster.bulk_load("t", {"a": np.arange(3), "b": np.ones(4)})

    def test_rowids_are_global_and_unique(self, cluster):
        cluster.create_table("t", [ColumnSchema("a", SqlType.INTEGER)])
        cluster.bulk_load("t", {"a": np.arange(100)})
        cluster.bulk_load("t", {"a": np.arange(100)})
        rowids = cluster.gather_table("t", ["a", ROWID_COLUMN])[ROWID_COLUMN]
        assert sorted(rowids.tolist()) == list(range(200))

    def test_scan_all_returns_every_row(self, loaded_cluster):
        data = loaded_cluster.gather_table("pts", ["a"])
        assert len(data["a"]) == 900

    def test_empty_insert_is_noop(self, cluster):
        cluster.create_table("t", [ColumnSchema("a", SqlType.INTEGER)])
        assert cluster.bulk_load("t", {"a": np.empty(0, dtype=np.int64)}) == 0


class TestSqlExecution:
    def test_count_star(self, loaded_cluster):
        assert loaded_cluster.sql("SELECT COUNT(*) FROM pts").scalar() == 900

    def test_projection_expression(self, loaded_cluster):
        result = loaded_cluster.sql("SELECT a + b AS s FROM pts LIMIT 5")
        assert result.column_names == ["s"]
        assert len(result) == 5

    def test_where_filter_matches_numpy(self, loaded_cluster):
        result = loaded_cluster.sql("SELECT COUNT(*) FROM pts WHERE a > 0 AND b < 0")
        data = loaded_cluster.gather_table("pts", ["a", "b"])
        expected = int(np.sum((data["a"] > 0) & (data["b"] < 0)))
        assert result.scalar() == expected

    def test_order_by_with_limit(self, loaded_cluster):
        result = loaded_cluster.sql("SELECT a FROM pts ORDER BY a DESC LIMIT 3")
        values = result.column("a")
        assert np.all(np.diff(values) <= 0)
        table_max = loaded_cluster.gather_table("pts", ["a"])["a"].max()
        assert values[0] == pytest.approx(table_max)

    def test_multi_key_order(self, cluster):
        cluster.create_table_like("t", {"g": np.array([1, 1, 2, 2]),
                                        "v": np.array([4.0, 3.0, 2.0, 1.0])})
        cluster.bulk_load("t", {"g": np.array([1, 1, 2, 2]),
                                "v": np.array([4.0, 3.0, 2.0, 1.0])})
        rows = cluster.sql("SELECT g, v FROM t ORDER BY g ASC, v DESC").rows()
        assert [(int(g), float(v)) for g, v in rows] == [
            (1, 4.0), (1, 3.0), (2, 2.0), (2, 1.0)
        ]

    def test_global_aggregates(self, loaded_cluster):
        table = loaded_cluster.gather_table("pts", ["a"])
        result = loaded_cluster.sql(
            "SELECT SUM(a), AVG(a), MIN(a), MAX(a), COUNT(a) FROM pts"
        )
        row = result.rows()[0]
        assert row[0] == pytest.approx(table["a"].sum())
        assert row[1] == pytest.approx(table["a"].mean())
        assert row[2] == pytest.approx(table["a"].min())
        assert row[3] == pytest.approx(table["a"].max())
        assert row[4] == 900

    def test_group_by_matches_numpy(self, loaded_cluster):
        result = loaded_cluster.sql(
            "SELECT k % 4 AS g, COUNT(*) AS n FROM pts GROUP BY k % 4 ORDER BY g"
        )
        data = loaded_cluster.gather_table("pts", ["k"])
        expected = np.bincount(data["k"] % 4, minlength=4)
        assert list(result.column("n")) == list(expected)

    def test_having_filters_groups(self, cluster):
        g = np.array([0] * 10 + [1] * 2)
        cluster.create_table_like("t", {"g": g})
        cluster.bulk_load("t", {"g": g})
        rows = cluster.sql(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 5"
        ).rows()
        assert len(rows) == 1
        assert rows[0][0] == 0

    def test_aggregate_expression(self, cluster):
        cluster.create_table_like("t", {"v": np.array([1.0, 2.0, 3.0])})
        cluster.bulk_load("t", {"v": np.array([1.0, 2.0, 3.0])})
        value = cluster.sql("SELECT SUM(v) / COUNT(*) FROM t").scalar()
        assert value == pytest.approx(2.0)

    def test_count_distinct(self, cluster):
        cluster.create_table_like("t", {"v": np.array([1, 1, 2, 3, 3, 3])})
        cluster.bulk_load("t", {"v": np.array([1, 1, 2, 3, 3, 3])})
        assert cluster.sql("SELECT COUNT(DISTINCT v) FROM t").scalar() == 3

    def test_aggregate_over_empty_table(self, cluster):
        cluster.create_table_like("t", {"v": np.array([1.0])})
        assert cluster.sql("SELECT COUNT(*) FROM t").scalar() == 0

    def test_bare_column_with_aggregate_rejected(self, loaded_cluster):
        with pytest.raises(SqlAnalysisError):
            loaded_cluster.sql("SELECT a, COUNT(*) FROM pts")

    def test_unknown_table(self, cluster):
        with pytest.raises(CatalogError):
            cluster.sql("SELECT * FROM nope")

    def test_unknown_column(self, loaded_cluster):
        with pytest.raises(SqlAnalysisError):
            loaded_cluster.sql("SELECT zzz FROM pts")

    def test_create_insert_select_roundtrip(self, cluster):
        cluster.sql("CREATE TABLE t (a INT, s VARCHAR) SEGMENTED BY HASH(a) ALL NODES")
        cluster.sql("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
        rows = cluster.sql("SELECT s FROM t WHERE a >= 2 ORDER BY a").rows()
        assert [r[0] for r in rows] == ["two", "three"]

    def test_drop_table(self, cluster):
        cluster.sql("CREATE TABLE t (a INT)")
        cluster.sql("DROP TABLE t")
        assert not cluster.catalog.has_table("t")
        cluster.sql("DROP TABLE IF EXISTS t")  # no error
        with pytest.raises(CatalogError):
            cluster.sql("DROP TABLE t")

    def test_select_star(self, cluster):
        cluster.sql("CREATE TABLE t (a INT, b FLOAT)")
        cluster.sql("INSERT INTO t VALUES (1, 0.5)")
        result = cluster.sql("SELECT * FROM t")
        assert result.column_names == ["a", "b"]

    def test_r_models_virtual_table_empty(self, cluster):
        result = cluster.sql("SELECT * FROM R_Models")
        assert len(result) == 0
        assert result.column_names == ["model", "owner", "type", "size", "description"]

    def test_scalar_on_multi_row_rejected(self, loaded_cluster):
        result = loaded_cluster.sql("SELECT a FROM pts LIMIT 2")
        with pytest.raises(ExecutionError):
            result.scalar()


class TestUdtfExecution:
    def install_echo(self, cluster, name="echo"):
        from repro.vertica import FunctionBasedUdtf

        def echo(ctx, args, params):
            first = next(iter(args.values()))
            return {
                "value": np.asarray(first, dtype=np.float64),
                "instance": np.full(len(first), ctx.instance_index, dtype=np.int64),
                "node": np.full(len(first), ctx.node_index, dtype=np.int64),
            }

        cluster.register_udtf(FunctionBasedUdtf(name, echo))

    def test_partition_nodes_one_instance_per_node(self, loaded_cluster):
        self.install_echo(loaded_cluster)
        result = loaded_cluster.sql(
            "SELECT echo(a) OVER (PARTITION NODES) FROM pts"
        )
        assert len(result) == 900
        nodes = np.unique(result.column("node"))
        assert len(nodes) == loaded_cluster.node_count

    def test_partition_best_processes_all_rows(self, loaded_cluster):
        self.install_echo(loaded_cluster)
        result = loaded_cluster.sql("SELECT echo(a) OVER (PARTITION BEST) FROM pts")
        assert len(result) == 900
        original = np.sort(loaded_cluster.gather_table("pts", ["a"])["a"])
        assert np.allclose(np.sort(result.column("value")), original)

    def test_partition_by_groups_keys_in_one_instance(self, cluster):
        from repro.vertica import FunctionBasedUdtf

        keys = np.repeat(np.arange(20), 30)
        cluster.create_table_like("t", {"key": keys, "v": np.ones(600)})
        cluster.bulk_load("t", {"key": keys, "v": np.ones(600)})

        def per_group(ctx, args, params):
            key_values = args["key"]
            unique, counts = np.unique(key_values, return_counts=True)
            return {"key": unique, "n": counts.astype(np.int64)}

        cluster.register_udtf(FunctionBasedUdtf("grpcount", per_group))
        result = cluster.sql(
            "SELECT grpcount(key, v) OVER (PARTITION BY key) FROM t"
        )
        # every key appears exactly once => all rows of a key hit one instance
        assert len(result) == 20
        assert np.all(result.column("n") == 30)

    def test_udtf_where_filter(self, loaded_cluster):
        self.install_echo(loaded_cluster)
        result = loaded_cluster.sql(
            "SELECT echo(a) OVER (PARTITION BEST) FROM pts WHERE a > 0"
        )
        data = loaded_cluster.gather_table("pts", ["a"])
        assert len(result) == int((data["a"] > 0).sum())

    def test_unregistered_udtf(self, loaded_cluster):
        with pytest.raises(CatalogError):
            loaded_cluster.sql("SELECT nosuch(a) OVER (PARTITION BEST) FROM pts")

    def test_udtf_with_order_by_rejected(self, loaded_cluster):
        self.install_echo(loaded_cluster)
        with pytest.raises(SqlAnalysisError):
            loaded_cluster.sql(
                "SELECT echo(a) OVER (PARTITION BEST) FROM pts ORDER BY a"
            )

    def test_ragged_udtf_output_rejected(self, loaded_cluster):
        from repro.vertica import FunctionBasedUdtf

        def bad(ctx, args, params):
            return {"x": np.arange(3), "y": np.arange(4)}

        loaded_cluster.register_udtf(FunctionBasedUdtf("bad", bad))
        with pytest.raises(ExecutionError, match="ragged"):
            loaded_cluster.sql("SELECT bad(a) OVER (PARTITION NODES) FROM pts")


class TestOdbc:
    def test_fetchall_matches_table(self, loaded_cluster):
        connection = loaded_cluster.connect()
        rows = connection.execute("SELECT k FROM pts WHERE k < 100").fetchall()
        data = loaded_cluster.gather_table("pts", ["k"])
        assert len(rows) == int((data["k"] < 100).sum())

    def test_fetchmany_pagination(self, loaded_cluster):
        connection = loaded_cluster.connect()
        connection.execute("SELECT a FROM pts")
        first = connection.fetchmany(100)
        second = connection.fetchmany(100)
        assert len(first) == 100 and len(second) == 100
        assert first != second

    def test_fetchone(self, loaded_cluster):
        connection = loaded_cluster.connect()
        connection.execute("SELECT COUNT(*) FROM pts")
        assert connection.fetchone() == (900,)
        assert connection.fetchone() is None

    def test_row_range_is_ordered_and_typed(self, loaded_cluster):
        connection = loaded_cluster.connect()
        out = connection.fetch_row_range("pts", ["k", "a"], 10, 20)
        assert len(out["k"]) == 10
        assert out["k"].dtype == np.int64
        assert out["a"].dtype == np.float64

    def test_row_ranges_partition_table(self, loaded_cluster):
        connection = loaded_cluster.connect()
        total = 0
        for start in range(0, 900, 300):
            chunk = connection.fetch_row_range("pts", ["a"], start, start + 300)
            total += len(chunk["a"])
        assert total == 900

    def test_range_fetch_roundtrips_values(self, cluster):
        values = np.array([1.5, -2.25, 1e-8, 3e10])
        cluster.create_table_like("t", {"v": values})
        cluster.bulk_load("t", {"v": values})
        out = cluster.connect().fetch_row_range("t", ["v"], 0, 4)
        assert np.allclose(np.sort(out["v"]), np.sort(values))

    def test_closed_connection_rejected(self, loaded_cluster):
        connection = loaded_cluster.connect()
        connection.close()
        with pytest.raises(ExecutionError):
            connection.execute("SELECT 1 FROM pts")

    def test_telemetry_counts_connections(self, loaded_cluster):
        before = loaded_cluster.metrics.counter("odbc_connections_opened").value
        loaded_cluster.connect()
        loaded_cluster.connect()
        assert loaded_cluster.metrics.counter("odbc_connections_opened").value == before + 2


class TestDfs:
    def test_write_read_roundtrip(self, cluster):
        info = cluster.dfs.write("/m/one", b"hello world")
        assert info.size == 11
        assert cluster.dfs.read("/m/one") == b"hello world"

    def test_replication_count(self, cluster):
        info = cluster.dfs.write("/m/two", b"x" * 100)
        assert len(info.replica_nodes) == min(2, cluster.node_count)

    def test_survives_single_node_failure(self, cluster):
        info = cluster.dfs.write("/m/three", b"payload")
        cluster.dfs.fail_node(info.replica_nodes[0])
        assert cluster.dfs.read("/m/three") == b"payload"

    def test_all_replicas_down_raises(self, cluster):
        info = cluster.dfs.write("/m/four", b"payload")
        for node in info.replica_nodes:
            cluster.dfs.fail_node(node)
        with pytest.raises(DfsError):
            cluster.dfs.read("/m/four")
        cluster.dfs.recover_node(info.replica_nodes[0])
        assert cluster.dfs.read("/m/four") == b"payload"

    def test_overwrite_requires_flag(self, cluster):
        cluster.dfs.write("/m/five", b"v1")
        with pytest.raises(DfsError):
            cluster.dfs.write("/m/five", b"v2")
        info = cluster.dfs.write("/m/five", b"v2", overwrite=True)
        assert info.version == 2
        assert cluster.dfs.read("/m/five") == b"v2"

    def test_delete(self, cluster):
        cluster.dfs.write("/m/six", b"bye")
        cluster.dfs.delete("/m/six")
        assert not cluster.dfs.exists("/m/six")
        with pytest.raises(DfsError):
            cluster.dfs.delete("/m/six")

    def test_list_by_prefix(self, cluster):
        cluster.dfs.write("/models/a", b"1")
        cluster.dfs.write("/models/b", b"2")
        cluster.dfs.write("/other/c", b"3")
        names = [f.path for f in cluster.dfs.list_files("/models/")]
        assert names == ["/models/a", "/models/b"]

    def test_non_bytes_rejected(self, cluster):
        with pytest.raises(DfsError):
            cluster.dfs.write("/m/x", "not bytes")

    def test_total_bytes_counts_replicas(self, cluster):
        cluster.dfs.write("/m/y", b"12345")
        assert cluster.dfs.total_bytes() == 5 * 2


class TestRModelsCatalog:
    def make_record(self, name="m1", owner="alice"):
        return ModelRecord(
            model=name, owner=owner, type="glm", size=10,
            description="", dfs_path=f"/drmodels/{name}",
        )

    def test_add_and_query_via_sql(self, cluster):
        cluster.r_models.add(self.make_record())
        rows = cluster.sql("SELECT model, owner FROM R_Models").rows()
        assert rows == [("m1", "alice")]

    def test_duplicate_rejected(self, cluster):
        cluster.r_models.add(self.make_record())
        with pytest.raises(CatalogError):
            cluster.r_models.add(self.make_record())

    def test_owner_always_allowed(self, cluster):
        cluster.r_models.add(self.make_record())
        record = cluster.r_models.get("m1", user="alice", privilege=Privilege.MODIFY)
        assert record.owner == "alice"

    def test_other_user_denied_without_grant(self, cluster):
        cluster.r_models.add(self.make_record())
        with pytest.raises(PermissionDeniedError):
            cluster.r_models.get("m1", user="bob")

    def test_grant_usage_allows_prediction(self, cluster):
        cluster.r_models.add(self.make_record())
        cluster.r_models.grant("m1", "bob", Privilege.USAGE, granting_user="alice")
        cluster.r_models.get("m1", user="bob", privilege=Privilege.USAGE)
        with pytest.raises(PermissionDeniedError):
            cluster.r_models.get("m1", user="bob", privilege=Privilege.MODIFY)

    def test_revoke(self, cluster):
        cluster.r_models.add(self.make_record())
        cluster.r_models.grant("m1", "bob", Privilege.USAGE, granting_user="alice")
        cluster.r_models.revoke("m1", "bob", Privilege.USAGE, revoking_user="alice")
        with pytest.raises(PermissionDeniedError):
            cluster.r_models.get("m1", user="bob")

    def test_only_owner_grants(self, cluster):
        cluster.r_models.add(self.make_record())
        with pytest.raises(PermissionDeniedError):
            cluster.r_models.grant("m1", "carol", Privilege.USAGE,
                                   granting_user="bob")

    def test_drop_requires_modify(self, cluster):
        cluster.r_models.add(self.make_record())
        with pytest.raises(PermissionDeniedError):
            cluster.r_models.drop("m1", user="bob")
        cluster.r_models.drop("m1", user="alice")
        assert not cluster.r_models.exists("m1")

    def test_replace_requires_modify(self, cluster):
        cluster.r_models.add(self.make_record())
        with pytest.raises(PermissionDeniedError):
            cluster.r_models.add(self.make_record(owner="eve"), replace=True,
                                 user="eve")


class TestPlannerResources:
    def test_partition_best_respects_core_budget(self):
        cluster = VerticaCluster(
            node_count=1, node_resources=NodeResources(cores=2, scan_slots=2)
        )
        rng = np.random.default_rng(0)
        cluster.create_table_like("t", {"v": rng.normal(size=100)})
        cluster.bulk_load("t", {"v": rng.normal(size=100)})
        assert cluster.nodes[0].best_udtf_parallelism(rowgroups=10) <= 2

    def test_core_reservation_accounting(self, cluster):
        node = cluster.nodes[0]
        granted = node.reserve_cores(3)
        assert granted == 3
        assert node.available_cores == node.resources.cores - 3
        node.release_cores(3)
        assert node.available_cores == node.resources.cores

    def test_over_release_rejected(self, cluster):
        from repro.errors import ResourceError

        with pytest.raises(ResourceError):
            cluster.nodes[0].release_cores(1)

    def test_table_stats_reports_skew(self, cluster):
        columns = {"v": np.arange(1000)}
        cluster.create_table_like("t", columns, SkewedSegmentation((8.0, 1.0, 1.0)))
        cluster.bulk_load("t", columns)
        stats = cluster.table_stats("t")
        assert stats["skew"] > 1.5
        assert stats["rows"] == 1000
