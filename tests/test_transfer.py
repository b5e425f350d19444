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
    _parse_frames,
    decode_frames,
    encode_frame,
    frames_to_columns,
    frames_to_matrix,
)
from repro.transfer.vft import TransferTarget
from repro.vertica import HashSegmentation, SkewedSegmentation, VerticaCluster
from tests.conftest import OnDisk


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

    def test_matrix_matches_stacked_frames(self):
        types = {"a": SqlType.FLOAT, "b": SqlType.INTEGER, "c": SqlType.BOOLEAN}
        rng = np.random.default_rng(3)
        chunks = [{"a": rng.normal(size=rows), "b": rng.integers(-9, 9, rows),
                   "c": rng.random(rows) < 0.5} for rows in (5, 1, 17)]
        payload = b"".join(encode_frame(chunk, types) for chunk in chunks)
        order = ["c", "a", "b"]
        stacked = np.vstack([
            np.column_stack([np.asarray(chunk[name], dtype=np.float64)
                             for name in order])
            for chunk in chunks])
        assert np.array_equal(frames_to_matrix(payload, order), stacked)


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

    def test_default_hints(self):
        # Locality: one stored row group per frame.  Uniform: the frame is
        # the unit of distribution, so the hint is each instance's share.
        assert LocalityPreserving().default_chunk_rows(100_000, 4) == 65_536
        assert UniformDistribution().default_chunk_rows(100_000, 4) == 25_000
        assert UniformDistribution().default_chunk_rows(900, 6) == 1_024


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


def spy_frames(monkeypatch) -> list[bytes]:
    """Every frame the receiver is handed, in arrival order."""
    frames: list[bytes] = []
    send_chunk = TransferTarget.send_chunk

    def spy(self, worker_index, db_node, instance, frame, rows, seq=None):
        frames.append(frame)
        return send_chunk(self, worker_index, db_node, instance, frame, rows,
                          seq=seq)

    monkeypatch.setattr(TransferTarget, "send_chunk", spy)
    return frames


class TestFrameForwarding:
    """A window that is one whole, fully visible stored row group ships as
    the blocks the table stores; any other window is compressed afresh.
    Either way every frame is byte-identical to ``encode_frame`` over its
    own rows, and the loaded data is the table's."""

    NUMERIC = ["k", "f", "b"]
    ALL = NUMERIC + ["tag", "text"]
    TYPES = {"k": SqlType.INTEGER, "f": SqlType.FLOAT, "b": SqlType.BOOLEAN,
             "tag": SqlType.VARCHAR, "text": SqlType.VARCHAR}

    @staticmethod
    def table(n, seed):
        rng = np.random.default_rng(seed)
        return {
            "k": rng.integers(0, 10**6, n),
            "f": rng.normal(size=n),
            "b": rng.random(n) < 0.3,
            # Few distinct strings: the dictionary layout under zlib.
            "tag": np.asarray([f"c{i % 5}" for i in rng.integers(0, 5, n)],
                              dtype=object),
            # All distinct: the offsets layout.
            "text": np.asarray([f"row-{i}-{v}" for i, v in
                                enumerate(rng.integers(0, 10**9, n))],
                               dtype=object),
        }

    def check(self, cluster, session, frames, load, columns, *, forwarded,
              **kwargs):
        """Run one transfer; assert which path framed it and that every
        frame re-encodes to itself.  Returns the loaded object."""
        metrics = cluster.metrics
        before = (metrics.counter("vft_blocks_forwarded").value,
                  metrics.counter("vft_blocks_reencoded").value)
        frames.clear()
        loaded = load(cluster, "t", columns, session, **kwargs)
        moved = (metrics.counter("vft_blocks_forwarded").value - before[0],
                 metrics.counter("vft_blocks_reencoded").value - before[1])
        blocks = len(frames) * len(columns)
        assert frames
        assert moved == ((blocks, 0) if forwarded else (0, blocks)), kwargs
        for frame in frames:
            assert encode_frame(decode_frames(frame)[0], self.TYPES,
                                codec=cluster.codec) == frame
        return loaded

    def stored(self, cluster, columns):
        """The table's visible rows in node-major storage order, which is
        what a locality-policy darray holds."""
        gathered = cluster.gather_table("t", columns)
        return np.column_stack([np.asarray(gathered[c], dtype=np.float64)
                                for c in columns])

    def reload(self, cluster, *loads):
        """(Re)create ``t`` with one bulk load per ``(rows, seed)``."""
        cluster.drop_table("t", if_exists=True)
        for index, (rows, seed) in enumerate(loads):
            columns = self.table(rows, seed)
            if not index:
                cluster.create_table_like("t", columns, HashSegmentation("k"))
            cluster.bulk_load("t", columns)

    @pytest.mark.parametrize("codec", ["zlib", "none"])
    def test_forwarded_and_reencoded_frames(self, monkeypatch, data_dir, codec):
        frames = spy_frames(monkeypatch)
        cluster = VerticaCluster(node_count=3, codec=codec, data_dir=data_dir)
        numeric, mixed = self.NUMERIC, self.ALL
        self.reload(cluster, (6_600, 21))
        with start_session(node_count=3, instances_per_node=2) as session:
            # A bulk-loaded table under the default locality hint: one row
            # group per node, each shipped as stored.
            array = self.check(cluster, session, frames, db2darray, numeric,
                               forwarded=True)
            assert np.array_equal(array.collect(), self.stored(cluster, numeric))
            frame = self.check(cluster, session, frames, db2dframe, mixed,
                               forwarded=True)
            got = frame.collect()
            for name, values in cluster.gather_table("t", mixed).items():
                assert np.array_equal(got[name], values), name
            if codec == "zlib":
                # Both VARCHAR layouts went out as stored.
                layouts = {blocks[name].codec
                           for frame_bytes in frames
                           for blocks in _parse_frames(frame_bytes)
                           for name in ("tag", "text")}
                assert layouts == {"zlib+dict", "zlib"}
            # A WHERE, a hint smaller than a row group and the uniform
            # policy (whose per-instance share, 1 100 rows, cuts each
            # 2 200-row row group) all compress afresh.
            self.check(cluster, session, frames, db2dframe, mixed,
                       forwarded=False, where="f > 0")
            small = self.check(cluster, session, frames, db2darray, numeric,
                               forwarded=False, chunk_rows=97)
            assert np.array_equal(small.collect(), array.collect())
            uniform = self.check(cluster, session, frames, db2darray, numeric,
                                 forwarded=False, policy="uniform")
            assert uniform.nrow == 6_600
            # WOS rows on every node join the node's window.
            for k in range(12):
                cluster.sql(f"INSERT INTO t VALUES ({k}, 0.25, TRUE, 'c1', 'w{k}')")
            table = cluster.catalog.get_table("t")
            assert all(segment.wos_rows for segment in table.segments)
            wos = self.check(cluster, session, frames, db2dframe, mixed,
                             forwarded=False)
            assert wos.nrow == 6_612
            # Deleted rows in every node's row group.
            self.reload(cluster, (6_600, 21))
            cluster.sql("DELETE FROM t WHERE f < -1.5")
            deleted = self.check(cluster, session, frames, db2darray, numeric,
                                 forwarded=False)
            assert np.array_equal(deleted.collect(),
                                  self.stored(cluster, numeric))
            # Two row groups of unequal size per node: PARTITION BEST's two
            # instance ranges cut the first one.
            self.reload(cluster, (6_600, 21), (600, 22))
            cut = self.check(cluster, session, frames, db2darray, numeric,
                             forwarded=False)
            assert np.array_equal(cut.collect(), self.stored(cluster, numeric))


class TestFrameForwardingOnDisk(OnDisk, TestFrameForwarding):
    pass
