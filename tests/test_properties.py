"""Property-based tests (hypothesis) on the core data paths and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.storage import ColumnBlock, SqlType, available_codecs, compress, decompress
from repro.storage.compression import shuffle_compress, shuffle_decompress
from repro.storage.encoding import decode_values, encode_values
from repro.transfer.streams import decode_frames, encode_frame
from repro.vertica.segmentation import (
    HashSegmentation,
    RoundRobinSegmentation,
    SkewedSegmentation,
    hash64,
)
from repro.vertica.sql import parse_expression
from repro.vertica import expressions

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


int_arrays = npst.arrays(np.int64, st.integers(0, 200))
float_arrays = npst.arrays(
    np.float64, st.integers(0, 200),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
)
text_values = st.lists(st.text(max_size=30), max_size=100)


class TestEncodingProperties:
    @common_settings
    @given(int_arrays)
    def test_integer_roundtrip(self, values):
        buffer = encode_values(values, SqlType.INTEGER)
        assert np.array_equal(
            decode_values(buffer, SqlType.INTEGER, len(values)), values
        )

    @common_settings
    @given(float_arrays)
    def test_float_roundtrip(self, values):
        buffer = encode_values(values, SqlType.FLOAT)
        assert np.array_equal(
            decode_values(buffer, SqlType.FLOAT, len(values)), values
        )

    @common_settings
    @given(text_values)
    def test_varchar_roundtrip(self, values):
        arr = np.asarray(values, dtype=object)
        buffer = encode_values(arr, SqlType.VARCHAR)
        assert list(decode_values(buffer, SqlType.VARCHAR, len(values))) == values

    @common_settings
    @given(st.binary(max_size=5000), st.sampled_from(available_codecs()))
    def test_compression_roundtrip(self, data, codec):
        assert decompress(compress(data, codec), codec) == data

    @common_settings
    @given(st.binary(max_size=5000), st.integers(0, 0xFF))
    def test_shuffle_roundtrip(self, data, mask):
        assert shuffle_decompress(shuffle_compress(data, mask)).tobytes() == data

    @common_settings
    @given(float_arrays, st.sampled_from(available_codecs()))
    def test_column_block_wire_roundtrip(self, values, codec):
        block = ColumnBlock.from_values(values, SqlType.FLOAT, codec=codec)
        restored = ColumnBlock.from_bytes(block.to_bytes())
        assert np.array_equal(restored.values(), values)

    @common_settings
    @given(npst.arrays(np.float64, st.integers(0, 1100),
                       elements=st.floats(width=64) | st.sampled_from(
                           [0.5, 1.25, -0.0])),
           st.sampled_from(available_codecs()))
    def test_numeric_block_bits_survive_every_layout(self, values, codec):
        """NaN payloads, infinities and -0.0 come back bit for bit, and
        integers too, whichever layout the block picked."""
        for column, sql_type in ((values, SqlType.FLOAT),
                                 (values.view(np.int64), SqlType.INTEGER)):
            block = ColumnBlock.from_values(column, sql_type, codec=codec)
            restored = ColumnBlock.from_bytes(block.to_bytes()).values()
            assert restored.tobytes() == column.tobytes()

    @common_settings
    @given(st.lists(st.sampled_from(["", "a", "é", "日本", "paid"]) | st.text(max_size=4),
                    max_size=1100),
           st.sampled_from(available_codecs()))
    def test_varchar_block_matches_offsets_layout(self, values, codec):
        array = np.asarray(values, dtype=object)
        block = ColumnBlock.from_values(array, SqlType.VARCHAR, codec=codec)
        restored = ColumnBlock.from_bytes(block.to_bytes()).values()
        assert restored.tolist() == decode_values(
            encode_values(array, SqlType.VARCHAR), SqlType.VARCHAR,
            len(values)).tolist()

    @common_settings
    @given(npst.arrays(
        np.float64, st.integers(1, 100),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
    ))
    def test_frame_roundtrip(self, values):
        frame = encode_frame({"col": values}, {"col": SqlType.FLOAT})
        decoded = decode_frames(frame)
        assert len(decoded) == 1
        assert np.allclose(decoded[0]["col"], values)


class TestSegmentationProperties:
    @common_settings
    @given(int_arrays, st.integers(1, 8))
    def test_hash_assignment_in_range_and_total_preserving(self, keys, nodes):
        scheme = HashSegmentation("k")
        assignment = scheme.assign({"k": keys}, len(keys), 0, nodes)
        assert len(assignment) == len(keys)
        if len(keys):
            assert assignment.min() >= 0
            assert assignment.max() < nodes

    @common_settings
    @given(int_arrays, st.integers(1, 8))
    def test_hash_equal_keys_colocated(self, keys, nodes):
        if len(keys) == 0:
            return
        scheme = HashSegmentation("k")
        doubled = np.concatenate([keys, keys])
        assignment = scheme.assign({"k": doubled}, len(doubled), 0, nodes)
        assert np.array_equal(assignment[:len(keys)], assignment[len(keys):])

    @common_settings
    @given(st.integers(0, 500), st.integers(0, 100), st.integers(1, 6))
    def test_round_robin_balanced(self, rows, offset, nodes):
        scheme = RoundRobinSegmentation()
        assignment = scheme.assign({}, rows, offset, nodes)
        counts = np.bincount(assignment, minlength=nodes)
        assert counts.max() - counts.min() <= 1

    @common_settings
    @given(st.integers(1, 1000))
    def test_hash64_is_deterministic_pure_function(self, n):
        values = np.arange(n)
        assert np.array_equal(hash64(values), hash64(values))

    @common_settings
    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=6),
           st.integers(100, 2000))
    def test_skewed_assignment_in_range(self, weights, rows):
        scheme = SkewedSegmentation(tuple(weights))
        assignment = scheme.assign({}, rows, 0, len(weights))
        assert assignment.min() >= 0
        assert assignment.max() < len(weights)


class TestSqlProperties:
    @common_settings
    @given(st.integers(-10**12, 10**12))
    def test_integer_literal_roundtrip(self, value):
        expr = parse_expression(str(value))
        assert int(expressions.evaluate(expr, {})) == value

    @common_settings
    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_float_literal_roundtrip(self, value):
        expr = parse_expression(repr(float(value)))
        result = expressions.evaluate(expr, {})
        assert float(result) == pytest.approx(float(value), rel=1e-6, abs=1e-30)

    @common_settings
    @given(st.text(alphabet=st.characters(blacklist_characters="'",
                                          blacklist_categories=("Cs",)),
                   max_size=40))
    def test_string_literal_roundtrip(self, text):
        expr = parse_expression(f"'{text}'")
        assert expr.value == text

    @common_settings
    @given(npst.arrays(np.float64, st.integers(1, 50),
                       elements=st.floats(-1e6, 1e6)),
           npst.arrays(np.float64, st.integers(1, 50),
                       elements=st.floats(-1e6, 1e6)))
    def test_arithmetic_matches_numpy(self, a, b):
        size = min(len(a), len(b))
        batch = {"a": a[:size], "b": b[:size]}
        result = expressions.evaluate(parse_expression("a + b * 2"), batch)
        assert np.allclose(result, batch["a"] + batch["b"] * 2)


class TestDistributedInvariants:
    @common_settings
    @given(st.integers(1, 6), st.integers(0, 60), st.integers(1, 4))
    def test_darray_collect_preserves_all_rows(self, npartitions, rows, cols):
        from repro.dr import start_session

        with start_session(node_count=2, instances_per_node=1) as session:
            array = session.darray(npartitions=npartitions)
            data = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols) \
                if rows and cols else np.zeros((rows, max(cols, 1)))
            array.fill_from(data)
            collected = array.collect()
            assert collected.shape[0] == rows

    @common_settings
    @given(st.integers(2, 5), st.integers(20, 80))
    def test_glm_matches_lstsq_for_any_partitioning(self, npartitions, rows):
        from repro.algorithms import hpdglm
        from repro.dr import start_session

        rng = np.random.default_rng(rows * 13 + npartitions)
        x_data = rng.normal(size=(rows, 2))
        y_data = 1.0 + x_data @ np.array([0.5, -0.25]) + rng.normal(
            scale=0.1, size=rows)
        with start_session(node_count=2, instances_per_node=1) as session:
            x = session.darray(npartitions=npartitions)
            x.fill_from(x_data)
            y = session.darray(
                npartitions=npartitions,
                worker_assignment=[x.worker_of(i) for i in range(npartitions)],
            )
            boundaries = np.linspace(0, rows, npartitions + 1).astype(int)
            for i in range(npartitions):
                y.fill_partition(
                    i, y_data[boundaries[i]:boundaries[i + 1]].reshape(-1, 1)
                )
            model = hpdglm(y, x)
        design = np.column_stack([np.ones(rows), x_data])
        expected = np.linalg.lstsq(design, y_data, rcond=None)[0]
        assert np.allclose(model.coefficients, expected, atol=1e-6)

    @common_settings
    @given(st.binary(min_size=1, max_size=2000), st.integers(1, 5))
    def test_dfs_read_returns_what_was_written(self, payload, replication):
        from repro.vertica.dfs import DistributedFileSystem

        dfs = DistributedFileSystem(4, replication=replication)
        info = dfs.write("/blob", payload)
        # replication beyond the node count is capped at one copy per node
        assert len(set(info.replica_nodes)) == min(replication, 4)
        assert dfs.read("/blob") == payload


class TestModelSerializationProperties:
    @common_settings
    @given(npst.arrays(np.float64, st.integers(1, 20),
                       elements=st.floats(-1e6, 1e6)))
    def test_glm_blob_roundtrip(self, coefficients):
        from repro.algorithms.glm import GlmModel
        from repro.deploy import deserialize_model, serialize_model

        model = GlmModel(
            coefficients=coefficients, family="gaussian", link="identity",
            intercept=True, iterations=2, deviance=1.0, null_deviance=2.0,
            converged=True, n_observations=100,
        )
        restored = deserialize_model(serialize_model(model))
        assert np.array_equal(restored.coefficients, coefficients)

    @common_settings
    @given(npst.arrays(np.float64, st.tuples(st.integers(1, 10), st.integers(1, 5)),
                       elements=st.floats(-100, 100)))
    def test_kmeans_blob_roundtrip(self, centers):
        from repro.algorithms.kmeans import KMeansModel
        from repro.deploy import deserialize_model, serialize_model

        model = KMeansModel(
            centers=centers, inertia=1.0, iterations=3, converged=True,
            n_observations=50,
            cluster_sizes=np.ones(len(centers), dtype=np.int64),
        )
        restored = deserialize_model(serialize_model(model))
        assert np.array_equal(restored.centers, centers)


class TestFaultToleranceProperties:
    """Single-fault SELECTs under k_safety=1 match failure-free results.

    The failure point (which node, how deep into the scan) is drawn by
    hypothesis; the invariant is absolute: one injected node crash
    anywhere in a protected scan never changes a query result, and losing a
    segment's node *and* its buddy raises a clean error instead of hanging
    or returning partial rows.
    """

    @staticmethod
    def _make_cluster(data_seed: int, k_safety: int = 1):
        from repro.vertica import VerticaCluster

        cluster = VerticaCluster(node_count=3)
        rng = np.random.default_rng(data_seed)
        columns = {"k": rng.integers(0, 10**6, 240),
                   "v": rng.normal(size=240)}
        cluster.create_table_like("t", columns, HashSegmentation("k"),
                                  k_safety=k_safety)
        # Four loads -> up to four row groups (= stream batches) per
        # segment, so every sampled crash depth lands inside a scan.
        for start in range(0, 240, 60):
            cluster.bulk_load("t", {name: array[start:start + 60]
                                    for name, array in columns.items()})
        return cluster

    @common_settings
    @given(
        data_seed=st.integers(0, 50),
        node=st.integers(0, 2),
        after=st.integers(0, 3),
    )
    def test_select_survives_any_single_node_crash(self, data_seed, node,
                                                   after):
        from repro.faults import FaultKind, FaultPlan

        query = "SELECT k, v FROM t"
        expected = self._make_cluster(data_seed).sql(query).rows()
        cluster = self._make_cluster(data_seed)
        plan = FaultPlan.single("scan.stream", FaultKind.NODE_CRASH,
                                match={"node": node}, after=after,
                                seed=data_seed)
        cluster.install_fault_plan(plan)
        result = cluster.sql(query).rows()
        assert result == expected
        # ``after=0`` is "node lost before its first batch"; deeper crashes
        # fire whenever the node's segment has that many batches to stream.
        segment = cluster.catalog.get_table("t").segments[node]
        fired = bool(plan.fired("scan.stream"))
        assert fired == (segment.rowgroup_count > after)
        if fired:
            # The rows above came through a buddy replica, and the
            # recovery was accounted for.
            assert cluster.nodes[node].is_down
            assert cluster.metrics.counter("failovers").value >= 1

    @common_settings
    @given(data_seed=st.integers(0, 50), node=st.integers(0, 2))
    def test_segment_and_buddy_both_down_fail_clean(self, data_seed, node):
        from repro.errors import ExecutionError

        cluster = self._make_cluster(data_seed)
        buddy = (node + 1) % 3
        cluster.fail_node(node)
        cluster.fail_node(buddy)
        with pytest.raises(ExecutionError, match="both down"):
            cluster.sql("SELECT count(*) FROM t")

    @common_settings
    @given(data_seed=st.integers(0, 50), node=st.integers(0, 2))
    def test_unprotected_crash_is_loud_not_partial(self, data_seed, node):
        from repro.errors import ExecutionError
        from repro.faults import FaultKind, FaultPlan

        cluster = self._make_cluster(data_seed, k_safety=0)
        plan = FaultPlan.single("scan.stream", FaultKind.NODE_CRASH,
                                match={"node": node}, seed=data_seed)
        cluster.install_fault_plan(plan)
        with pytest.raises(ExecutionError):
            cluster.sql("SELECT k, v FROM t")
