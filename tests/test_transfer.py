"""Tests for VFT, the distribution policies, and the ODBC loaders."""

import numpy as np
import pytest

from repro.dr import start_session
from repro.errors import TransferError
from repro.storage.encoding import SqlType
from repro.transfer import (
    LocalityPreserving,
    UniformDistribution,
    db2darray,
    db2darray_with_response,
    db2dframe,
    get_policy,
    load_via_parallel_odbc,
    load_via_single_odbc,
)
from repro.transfer.streams import (
    decode_frames,
    encode_frame,
    frames_to_columns,
    frames_to_matrix,
)
from repro.vertica import HashSegmentation, SkewedSegmentation, VerticaCluster


class TestStreamProtocol:
    def types(self):
        return {"a": SqlType.FLOAT, "b": SqlType.INTEGER, "s": SqlType.VARCHAR}

    def test_frame_roundtrip(self):
        chunk = {
            "a": np.linspace(0, 1, 10),
            "b": np.arange(10),
            "s": np.asarray([f"v{i}" for i in range(10)], dtype=object),
        }
        frame = encode_frame(chunk, self.types())
        decoded = decode_frames(frame)
        assert len(decoded) == 1
        assert np.allclose(decoded[0]["a"], chunk["a"])
        assert list(decoded[0]["s"]) == list(chunk["s"])

    def test_multiple_frames_concatenate(self):
        types = {"a": SqlType.FLOAT}
        payload = b"".join(
            encode_frame({"a": np.full(3, float(i))}, types) for i in range(4)
        )
        matrix = frames_to_matrix(payload, ["a"])
        assert matrix.shape == (12, 1)
        assert np.allclose(matrix.ravel()[:3], 0.0)
        assert np.allclose(matrix.ravel()[-3:], 3.0)

    def test_matrix_column_order(self):
        types = {"a": SqlType.FLOAT, "b": SqlType.FLOAT}
        payload = encode_frame({"a": np.ones(2), "b": np.zeros(2)}, types)
        matrix = frames_to_matrix(payload, ["b", "a"])
        assert np.allclose(matrix[:, 0], 0.0)
        assert np.allclose(matrix[:, 1], 1.0)

    def test_columns_variant_keeps_strings(self):
        payload = encode_frame(
            {"s": np.asarray(["x", "y"], dtype=object)}, {"s": SqlType.VARCHAR}
        )
        out = frames_to_columns(payload, ["s"])
        assert list(out["s"]) == ["x", "y"]

    def test_truncated_payload_rejected(self):
        payload = encode_frame({"a": np.ones(5)}, {"a": SqlType.FLOAT})
        with pytest.raises(TransferError):
            decode_frames(payload[:-3])

    def test_missing_column_rejected(self):
        payload = encode_frame({"a": np.ones(2)}, {"a": SqlType.FLOAT})
        with pytest.raises(TransferError):
            frames_to_matrix(payload, ["a", "missing"])

    def test_empty_frame_rejected(self):
        with pytest.raises(TransferError):
            encode_frame({}, {})

    def test_empty_payload_gives_empty_matrix(self):
        assert frames_to_matrix(b"", ["a", "b"]).shape == (0, 2)


class TestPolicies:
    def test_lookup(self):
        assert isinstance(get_policy("locality"), LocalityPreserving)
        assert isinstance(get_policy("uniform"), UniformDistribution)
        with pytest.raises(TransferError):
            get_policy("random")

    def test_locality_requires_equal_counts(self):
        policy = LocalityPreserving()
        policy.validate(4, 4)
        with pytest.raises(TransferError):
            policy.validate(4, 5)

    def test_locality_maps_node_to_worker(self):
        policy = LocalityPreserving()
        for node in range(4):
            assert policy.target_worker(node, 0, 0, 4) == node
            assert policy.target_worker(node, 3, 7, 4) == node

    def test_uniform_any_topology(self):
        policy = UniformDistribution()
        policy.validate(4, 7)  # no exception

    def test_uniform_round_robins(self):
        policy = UniformDistribution()
        targets = [policy.target_worker(0, 2, chunk, 4) for chunk in range(8)]
        assert targets == [2, 3, 0, 1, 2, 3, 0, 1]

    def test_partition_counts(self):
        assert LocalityPreserving().partition_count(4, 4) == 4
        assert UniformDistribution().partition_count(4, 7) == 7


def make_loaded_cluster(n=1200, nodes=3, segmentation=None, seed=11):
    rng = np.random.default_rng(seed)
    columns = {
        "k": rng.integers(0, 100_000, n),
        "y": rng.normal(size=n),
        "a": rng.normal(size=n),
        "b": rng.normal(size=n),
        "name": np.asarray([f"row{i}" for i in range(n)], dtype=object),
    }
    cluster = VerticaCluster(node_count=nodes)
    cluster.create_table_like(
        "t", columns, segmentation or HashSegmentation("k")
    )
    cluster.bulk_load("t", columns)
    return cluster, columns


class TestDb2Darray:
    def test_locality_mirrors_segments(self):
        cluster, _ = make_loaded_cluster()
        with start_session(node_count=3, instances_per_node=2) as session:
            array = db2darray(cluster, "t", ["a", "b"], session)
            assert array.npartitions == cluster.node_count
            partition_rows = [shape[0] for shape in array.partition_shapes()]
            assert partition_rows == cluster.catalog.get_table("t").segment_row_counts()

    def test_loaded_values_match_table(self):
        cluster, columns = make_loaded_cluster()
        with start_session(node_count=3, instances_per_node=2) as session:
            array = db2darray(cluster, "t", ["a", "b"], session)
            loaded = array.collect()
            assert loaded.shape == (1200, 2)
            # Sets of values must match exactly (order differs by segment).
            assert np.allclose(np.sort(loaded[:, 0]), np.sort(columns["a"]))
            assert np.allclose(np.sort(loaded[:, 1]), np.sort(columns["b"]))

    def test_uniform_balances_skew(self):
        cluster, _ = make_loaded_cluster(
            segmentation=SkewedSegmentation((6.0, 1.0, 1.0))
        )
        with start_session(node_count=3, instances_per_node=2) as session:
            local = db2darray(cluster, "t", ["a"], session, policy="locality")
            local_rows = [s[0] for s in local.partition_shapes()]
            assert max(local_rows) > 3 * min(local_rows)  # skew preserved
            uniform = db2darray(cluster, "t", ["a"], session, policy="uniform",
                                chunk_rows=64)
            uniform_rows = [s[0] for s in uniform.partition_shapes()]
            assert max(uniform_rows) < 1.3 * min(uniform_rows)  # balanced
            assert sum(uniform_rows) == 1200

    def test_locality_topology_mismatch_rejected(self):
        cluster, _ = make_loaded_cluster(nodes=3)
        with start_session(node_count=2, instances_per_node=1) as session:
            with pytest.raises(TransferError):
                db2darray(cluster, "t", ["a"], session, policy="locality")

    def test_uniform_works_across_topologies(self):
        cluster, _ = make_loaded_cluster(nodes=3)
        with start_session(node_count=2, instances_per_node=2) as session:
            array = db2darray(cluster, "t", ["a"], session, policy="uniform")
            assert array.npartitions == 2
            assert array.nrow == 1200

    def test_varchar_rejected_for_darray(self):
        cluster, _ = make_loaded_cluster()
        with start_session(node_count=3, instances_per_node=1) as session:
            with pytest.raises(TransferError, match="numeric"):
                db2darray(cluster, "t", ["a", "name"], session)

    def test_where_clause_filters(self):
        cluster, columns = make_loaded_cluster()
        with start_session(node_count=3, instances_per_node=1) as session:
            array = db2darray(cluster, "t", ["a"], session, where="a > 0")
            assert array.nrow == int((columns["a"] > 0).sum())

    def test_empty_columns_rejected(self):
        cluster, _ = make_loaded_cluster()
        with start_session(node_count=3, instances_per_node=1) as session:
            with pytest.raises(TransferError):
                db2darray(cluster, "t", [], session)

    def test_partitions_placed_on_matching_workers(self):
        cluster, _ = make_loaded_cluster()
        with start_session(node_count=3, instances_per_node=1) as session:
            array = db2darray(cluster, "t", ["a"], session)
            for partition in range(array.npartitions):
                assert array.worker_of(partition) == partition

    def test_telemetry_counts_bytes(self):
        cluster, _ = make_loaded_cluster()
        with start_session(node_count=3, instances_per_node=1) as session:
            db2darray(cluster, "t", ["a"], session)
            assert cluster.metrics.counter("vft_bytes_sent").value > 0
            assert session.metrics.counter("vft_rows_received").value == 1200


class TestDb2DFrame:
    def test_mixed_types(self):
        cluster, columns = make_loaded_cluster()
        with start_session(node_count=3, instances_per_node=1) as session:
            frame = db2dframe(cluster, "t", ["name", "a"], session)
            assert frame.nrow == 1200
            collected = frame.collect()
            assert sorted(collected["name"]) == sorted(columns["name"])

    def test_response_helper_colocates(self):
        cluster, columns = make_loaded_cluster()
        with start_session(node_count=3, instances_per_node=2) as session:
            y, x = db2darray_with_response(cluster, "t", "y", ["a", "b"], session)
            assert y.npartitions == x.npartitions
            for i in range(y.npartitions):
                assert y.worker_of(i) == x.worker_of(i)
                assert y.partitions[i].nrow == x.partitions[i].nrow
            assert np.allclose(np.sort(y.collect().ravel()), np.sort(columns["y"]))

    def test_response_cannot_be_feature(self):
        cluster, _ = make_loaded_cluster()
        with start_session(node_count=3, instances_per_node=1) as session:
            with pytest.raises(TransferError):
                db2darray_with_response(cluster, "t", "y", ["y", "a"], session)


class TestOdbcLoaders:
    def test_single_loads_in_row_order(self):
        cluster, columns = make_loaded_cluster(n=300)
        with start_session(node_count=3, instances_per_node=1) as session:
            array = load_via_single_odbc(cluster, "t", ["a"], session)
            assert array.npartitions == 1
            # Global row order == insertion order.
            assert np.allclose(array.collect().ravel(), columns["a"])

    def test_parallel_covers_all_rows(self):
        cluster, columns = make_loaded_cluster(n=500)
        with start_session(node_count=3, instances_per_node=2) as session:
            array = load_via_parallel_odbc(cluster, "t", ["a", "b"], session,
                                           connections=6)
            assert array.npartitions == 6
            loaded = array.collect()
            assert loaded.shape == (500, 2)
            assert np.allclose(np.sort(loaded[:, 0]), np.sort(columns["a"]))

    def test_parallel_default_connection_count(self):
        cluster, _ = make_loaded_cluster(n=200)
        with start_session(node_count=3, instances_per_node=2) as session:
            array = load_via_parallel_odbc(cluster, "t", ["a"], session)
            assert array.npartitions == session.total_instances

    def test_parallel_contends_on_scan_slots(self):
        cluster, _ = make_loaded_cluster(n=600)
        with start_session(node_count=3, instances_per_node=4) as session:
            load_via_parallel_odbc(cluster, "t", ["a"], session, connections=12)
        # 12 concurrent range queries against 4 scan slots/node must queue.
        assert any(node.peak_scan_wait_depth >= 1 for node in cluster.nodes)

    def test_vft_and_odbc_load_identical_data(self):
        cluster, _ = make_loaded_cluster(n=400)
        with start_session(node_count=3, instances_per_node=2) as session:
            via_vft = db2darray(cluster, "t", ["a", "b"], session)
            via_odbc = load_via_parallel_odbc(cluster, "t", ["a", "b"], session,
                                              connections=4)
            assert np.allclose(
                np.sort(via_vft.collect(), axis=0),
                np.sort(via_odbc.collect(), axis=0),
            )

    def test_unknown_column_rejected(self):
        cluster, _ = make_loaded_cluster(n=100)
        with start_session(node_count=3, instances_per_node=1) as session:
            from repro.errors import CatalogError
            with pytest.raises(CatalogError):
                load_via_single_odbc(cluster, "t", ["nope"], session)
