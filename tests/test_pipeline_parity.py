"""The batch pipeline against an independent numpy oracle.

The executor runs scan, aggregate, and UDTF fan-out as a rowgroup-granular,
backpressured dataflow over the cluster's per-node scan sources.  There is
no second engine to compare it with, so these tests check every plan shape
two ways:

* **Contents** against numpy computed from the arrays this module loaded:
  ``ORDER BY`` queries in exact order, everything else as a row multiset.
  Where SQL leaves the order to the scan (ties under ``ORDER BY``, ``LIMIT``
  without ``ORDER BY``) the reference is the table's node-major storage
  order read through ``VerticaCluster.gather_table`` — the scan sources,
  not the executor.
* **Invariance**: row order, dtypes and every discrete column are bitwise
  identical across ``batch_rows`` in {1, 64, 8192} x ``queue_depth`` in
  {1, 4}; how the stream is cut must never show in a result.

Float ``SUM``/``AVG`` columns compare at ``rtol=1e-9`` rather than exactly:
``np.sum`` folds over different chunk boundaries, so results may differ in
the last ulp.  The remaining tests pin the two resource claims the pipeline
exists for: bounded batches in flight under a small queue depth, and peak
in-flight bytes bounded by the queue depth, not the table.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np
import pytest

from repro.algorithms import KMeansModel, hpdglm
from repro.deploy import deploy_model
from repro.dr import start_session
from repro.transfer import db2darray
from repro.vertica import HashSegmentation, VerticaCluster
from repro.vertica.executor import ResultSet
from repro.vertica.pipeline import PipelineConfig
from repro.vertica.udtf import TransformFunction
from repro.workloads import make_regression

NODE_COUNT = 3
ROUNDS = 3          # bulk loads per cluster -> row groups per segment
ROWS_PER_ROUND = 300
CONFIGS = [(batch_rows, queue_depth)
           for batch_rows in (1, 64, 8192) for queue_depth in (1, 4)]


def make_columns(n: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "k": rng.integers(0, 10_000, n),
        "a": rng.normal(size=n),
        "b": rng.normal(size=n),
        "y": rng.normal(size=n),
    }


def load_rounds(rounds: int = ROUNDS, rows: int = ROWS_PER_ROUND,
                sorted_keys: bool = False) -> list[dict[str, np.ndarray]]:
    """The bulk loads of ``pts``, one column dict per round.

    ``sorted_keys`` gives each round a disjoint ``k`` range so row groups
    carry tight zone maps and range predicates actually prune.
    """
    loads = []
    for round_index in range(rounds):
        columns = make_columns(rows, seed=7 + round_index)
        if sorted_keys:
            columns["k"] = np.sort(
                np.random.default_rng(70 + round_index).integers(
                    round_index * 1_000, (round_index + 1) * 1_000, rows))
        loads.append(columns)
    return loads


def loaded(**load_kwargs) -> dict[str, np.ndarray]:
    """Everything ``build_cluster`` puts in ``pts``, in load order — the
    arrays every oracle below computes from."""
    loads = load_rounds(**load_kwargs)
    return {name: np.concatenate([columns[name] for columns in loads])
            for name in loads[0]}


def build_cluster(batch_rows: int = 64, queue_depth: int = 2,
                  **load_kwargs) -> VerticaCluster:
    """A 3-node cluster with ``pts`` loaded identically for any config."""
    cluster = VerticaCluster(
        node_count=NODE_COUNT,
        pipeline=PipelineConfig(batch_rows=batch_rows,
                                queue_depth=queue_depth),
    )
    loads = load_rounds(**load_kwargs)
    cluster.create_table_like("pts", loads[0], HashSegmentation("k"))
    for columns in loads:
        cluster.bulk_load("pts", columns)
    return cluster


def scan_order(cluster: VerticaCluster, names: list[str]
               ) -> dict[str, np.ndarray]:
    """``pts`` in node-major storage order, read below the executor."""
    return cluster.gather_table("pts", names)


def assert_results_match(reference: ResultSet, other: ResultSet,
                         float_columns: tuple[str, ...] = ()) -> None:
    assert other.column_names == reference.column_names
    assert len(other) == len(reference)
    for name in reference.column_names:
        expected = reference.column(name)
        actual = other.column(name)
        assert actual.dtype == expected.dtype, name
        if name in float_columns:
            np.testing.assert_allclose(actual, expected,
                                       rtol=1e-9, atol=1e-12)
        else:
            assert np.array_equal(actual, expected), name


def _sorted_rows(columns: dict[str, np.ndarray], keys: list[str]
                 ) -> dict[str, np.ndarray]:
    order = np.lexsort([columns[key] for key in reversed(keys)])
    return {name: arr[order] for name, arr in columns.items()}


def assert_matches_oracle(result: ResultSet, expected: dict[str, np.ndarray],
                          ordered: bool,
                          float_columns: tuple[str, ...] = ()) -> None:
    """``result`` holds exactly the oracle's rows: in the oracle's order
    when ``ordered``, else as a multiset (both sides sorted by every exact
    column).  ``float_columns`` compare at ``rtol=1e-9``."""
    assert result.column_names == list(expected)
    actual = {name: result.column(name) for name in expected}
    expected = {name: np.asarray(arr) for name, arr in expected.items()}
    for name in expected:
        assert actual[name].dtype == expected[name].dtype, name
        assert len(actual[name]) == len(expected[name]), name
    if not ordered:
        exact = [name for name in expected if name not in float_columns]
        actual = _sorted_rows(actual, exact)
        expected = _sorted_rows(expected, exact)
    for name in expected:
        if name in float_columns:
            np.testing.assert_allclose(actual[name], expected[name],
                                       rtol=1e-9, atol=1e-12)
        else:
            assert np.array_equal(actual[name], expected[name]), name


def run_all_configs(query: str, float_columns: tuple[str, ...] = (),
                    setup=None, configs=CONFIGS, **load_kwargs
                    ) -> tuple[ResultSet, list[VerticaCluster]]:
    """Run ``query`` under every pipeline config; the results must agree
    bitwise (``float_columns`` at ``rtol=1e-9``).  Returns the first result
    and every cluster, in ``configs`` order."""
    clusters, results = [], []
    for batch_rows, queue_depth in configs:
        cluster = build_cluster(batch_rows, queue_depth, **load_kwargs)
        if setup is not None:
            setup(cluster)
        clusters.append(cluster)
        results.append(cluster.sql(query))
    for other in results[1:]:
        assert_results_match(results[0], other, float_columns)
    return results[0], clusters


def check(query: str, oracle, ordered: bool = False,
          float_columns: tuple[str, ...] = (), setup=None,
          **load_kwargs) -> tuple[ResultSet, list[VerticaCluster]]:
    """Config invariance plus contents: ``oracle`` maps the loaded arrays
    to the expected result columns."""
    result, clusters = run_all_configs(query, float_columns, setup,
                                       **load_kwargs)
    assert_matches_oracle(result, oracle(loaded(**load_kwargs)), ordered,
                          float_columns)
    return result, clusters


class TestScanParity:
    def test_plain_projection(self):
        result, _ = check(
            "SELECT k, a, b FROM pts",
            lambda t: {"k": t["k"], "a": t["a"], "b": t["b"]})
        assert len(result) == ROUNDS * ROWS_PER_ROUND

    def test_select_star(self):
        check("SELECT * FROM pts", lambda t: t)

    def test_filter_and_expression(self):
        def oracle(t):
            keep = t["k"] < 5000
            return {"k": t["k"][keep], "s": (t["a"] + t["b"])[keep]}

        result, _ = check(
            "SELECT k, a + b AS s FROM pts WHERE k < 5000", oracle)
        assert 0 < len(result) < ROUNDS * ROWS_PER_ROUND

    def test_order_by_limit_uses_streaming_topk(self):
        def oracle(t):
            top = np.lexsort((t["a"], -t["k"]))[:17]
            return {"k": t["k"][top], "a": t["a"][top]}

        check("SELECT k, a FROM pts ORDER BY k DESC, a LIMIT 17", oracle,
              ordered=True)

    def test_order_by_limit_with_ties_is_stable(self):
        # k % 4 has heavy ties; per-node top-k trimming must keep tied rows
        # in scan order, whatever the batch size.  The second table holds
        # 12 000 rows per node, so the 8 192-row trim threshold trips
        # mid-scan (one-row batches would only make that slow).
        for kwargs in ({}, {"rows": 12_000, "configs": CONFIGS[2:]}):
            result, clusters = run_all_configs(
                "SELECT k % 4 AS g, a FROM pts ORDER BY g LIMIT 40", **kwargs)
            scanned = scan_order(clusters[0], ["k", "a"])
            first = np.argsort(scanned["k"] % 4, kind="stable")[:40]
            assert_matches_oracle(
                result,
                {"g": scanned["k"][first] % 4, "a": scanned["a"][first]},
                ordered=True)

    def test_limit_without_order_stops_early(self):
        result, clusters = run_all_configs("SELECT k FROM pts LIMIT 25")
        # Read before the oracle's own full scan adds to the counter.
        scanned = clusters[0].metrics.counter("rows_scanned").value
        assert_matches_oracle(
            result, {"k": scan_order(clusters[0], ["k"])["k"][:25]},
            ordered=True)
        # The small-batch configs stop pulling long before the table ends.
        assert scanned < ROUNDS * ROWS_PER_ROUND

    def test_distinct(self):
        check("SELECT DISTINCT k % 16 AS g FROM pts ORDER BY g",
              lambda t: {"g": np.unique(t["k"] % 16)}, ordered=True)

    def test_parity_under_zone_map_pruning(self):
        def oracle(t):
            keep = t["k"] < 900
            return {"k": t["k"][keep], "a": t["a"][keep]}

        _, clusters = check("SELECT k, a FROM pts WHERE k < 900", oracle,
                            sorted_keys=True)
        for cluster in clusters:
            assert cluster.metrics.counter("rowgroups_pruned").value > 0

    def test_empty_scan_keeps_schema_dtypes(self):
        """Zero surviving rows must not collapse every column to float64."""
        result, _ = run_all_configs(
            "SELECT k, a, a + b AS s FROM pts WHERE k < 0 - 1")
        assert len(result) == 0
        assert result.column("k").dtype == np.dtype(np.int64)
        assert result.column("a").dtype == np.dtype(np.float64)
        assert result.column("s").dtype == np.dtype(np.float64)


class TestAggregateParity:
    def test_global_discrete_aggregates(self):
        check("SELECT COUNT(*) AS n, MIN(k) AS lo, MAX(k) AS hi FROM pts",
              lambda t: {"n": np.asarray([len(t["k"])]),
                         "lo": np.asarray([t["k"].min()]),
                         "hi": np.asarray([t["k"].max()])})

    def test_global_float_aggregates(self):
        check("SELECT SUM(a) AS s, AVG(y) AS m FROM pts",
              lambda t: {"s": np.asarray([t["a"].sum()]),
                         "m": np.asarray([t["y"].mean()])},
              ordered=True, float_columns=("s", "m"))

    def test_group_by_with_having_and_order(self):
        def oracle(t):
            groups = t["k"] % 7
            kept = [g for g in np.unique(groups) if (groups == g).sum() > 10]
            return {
                "g": np.asarray(kept, dtype=np.int64),
                "n": np.asarray([(groups == g).sum() for g in kept],
                                dtype=np.int64),
                "s": np.asarray([t["a"][groups == g].sum() for g in kept]),
            }

        check("SELECT k % 7 AS g, COUNT(*) AS n, SUM(a) AS s FROM pts "
              "GROUP BY g HAVING COUNT(*) > 10 ORDER BY g",
              oracle, ordered=True, float_columns=("s",))

    def test_filtered_aggregate(self):
        def oracle(t):
            keep = t["k"] < 4000
            return {"n": np.asarray([keep.sum()], dtype=np.int64),
                    "hi": np.asarray([t["b"][keep].max()])}

        check("SELECT COUNT(*) AS n, MAX(b) AS hi FROM pts WHERE k < 4000",
              oracle)

    def test_aggregate_over_zero_rows(self):
        result, _ = run_all_configs(
            "SELECT COUNT(*) AS n, SUM(a) AS s FROM pts WHERE k < 0 - 1")
        assert len(result) == 1
        assert result.column("n")[0] == 0
        assert result.column("s")[0] is None


class _Doubler(TransformFunction):
    """Row-wise UDTF: output rows mirror input rows one-for-one."""

    name = "doubleUp"

    def process(self, ctx, args, params):
        first = next(iter(args.values()))
        return {"v": np.asarray(first, dtype=np.float64) * 2.0}


class _KeySum(TransformFunction):
    """Keyed UDTF with exact integer state: sums ``k`` per distinct key."""

    name = "keySum"

    def process(self, ctx, args, params):
        keys = np.asarray(args["k"], dtype=np.int64)
        uniq = np.unique(keys)
        totals = np.asarray(
            [int(keys[keys == value].sum()) for value in uniq],
            dtype=np.int64,
        )
        return {"k": uniq, "total": totals}


def _register_udtfs(cluster: VerticaCluster) -> None:
    cluster.register_udtf(_Doubler())
    cluster.register_udtf(_KeySum())


class TestUdtfParity:
    def test_partition_nodes(self):
        result, _ = check(
            "SELECT doubleUp(a) OVER (PARTITION NODES) FROM pts",
            lambda t: {"v": t["a"] * 2.0}, setup=_register_udtfs)
        assert len(result) == ROUNDS * ROWS_PER_ROUND

    def test_partition_best(self):
        check("SELECT doubleUp(a) OVER (PARTITION BEST) FROM pts",
              lambda t: {"v": t["a"] * 2.0}, setup=_register_udtfs)

    def test_partition_best_with_filter(self):
        check("SELECT doubleUp(a) OVER (PARTITION BEST) FROM pts "
              "WHERE k < 5000",
              lambda t: {"v": t["a"][t["k"] < 5000] * 2.0},
              setup=_register_udtfs)

    def test_partition_by_key(self):
        def oracle(t):
            keys, counts = np.unique(t["k"], return_counts=True)
            return {"k": keys, "total": keys * counts}

        # One output row per key proves equal keys met in one instance.
        result, clusters = check(
            "SELECT keySum(k) OVER (PARTITION BY k) FROM pts", oracle,
            setup=_register_udtfs)
        assert result.column("total").sum() == loaded()["k"].sum()
        for cluster in clusters:
            assert cluster.metrics.counter("udtf_instances").value == NODE_COUNT

    def test_partition_best_over_r_models(self):
        """The catalog table is one in-memory source: one instance on node
        0 sees every model, and a filter that drops them all still yields
        the (empty) declared output."""
        model = KMeansModel(
            centers=np.asarray([[0.5, 0.5], [-0.5, -0.5]]),
            inertia=0.0, iterations=1, converged=True,
            n_observations=2, cluster_sizes=np.asarray([1, 1]),
        )

        class _Where(TransformFunction):
            name = "whereAmI"

            def process(self, ctx, args, params):
                size = np.asarray(args["size"], dtype=np.int64)
                return {"size": size,
                        "node": np.full(len(size), ctx.node_index),
                        "instances": np.full(len(size), ctx.instance_count)}

        cluster = build_cluster()
        cluster.register_udtf(_Where())
        for name in ("km_a", "km_b"):
            deploy_model(cluster, model, name)
        sizes = cluster.sql("SELECT size FROM R_Models").column("size")
        assert len(sizes) == 2
        before = cluster.metrics.counter("udtf_instances").value
        result = cluster.sql(
            "SELECT whereAmI(size) OVER (PARTITION BEST) FROM R_Models")
        assert cluster.metrics.counter("udtf_instances").value == before + 1
        assert np.array_equal(result.column("size"), sizes)
        assert result.column("node").tolist() == [0, 0]
        assert result.column("instances").tolist() == [1, 1]
        none = cluster.sql(
            "SELECT whereAmI(size) OVER (PARTITION BEST) FROM R_Models "
            "WHERE size < 0")
        assert len(none) == 0

    def test_prediction_parity(self, session):
        data = make_regression(500, 3, seed=8)
        x = session.darray(npartitions=3)
        x.fill_from(data.features)
        y = session.darray(
            npartitions=3,
            worker_assignment=[x.worker_of(i) for i in range(3)],
        )
        boundaries = np.linspace(0, 500, 4).astype(int)
        for i in range(3):
            y.fill_partition(
                i, data.responses[boundaries[i]:boundaries[i + 1]].reshape(-1, 1))
        model = hpdglm(y, x)

        rng = np.random.default_rng(21)
        columns = {"k": rng.integers(0, 10_000, 600)}
        for j in range(3):
            columns[f"c{j}"] = rng.normal(size=600)
        features = np.column_stack([columns[f"c{j}"] for j in range(3)])
        expected = np.sort(
            model.coefficients[0] + features @ model.coefficients[1:])

        def score(batch_rows):
            cluster = VerticaCluster(
                node_count=NODE_COUNT,
                pipeline=PipelineConfig(batch_rows=batch_rows))
            cluster.create_table_like("scores", columns, HashSegmentation("k"))
            cluster.bulk_load("scores", columns)
            deploy_model(cluster, model, "reg")
            return cluster.sql(
                "SELECT glmPredict(c0, c1, c2 USING PARAMETERS model='reg') "
                "OVER (PARTITION BEST) FROM scores").column("prediction")

        predictions = [score(batch_rows) for batch_rows in (1, 64, 8192)]
        for prediction in predictions:
            assert len(prediction) == 600
            np.testing.assert_allclose(prediction, predictions[0],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(np.sort(prediction), expected,
                                       rtol=1e-12, atol=1e-12)


class _Arrivals(TransformFunction):
    """Echoes its rows in arrival order, tagged with the receiving instance."""

    name = "arrivals"

    def process(self, ctx, args, params):
        seq = np.asarray(args["seq"])
        return {"instance": np.full(len(seq), ctx.instance_index),
                "k": np.asarray(args["k"]), "seq": seq}


class TestFanOutScheduling:
    """The tightest schedule the fan-out must finish: one-row batches,
    one-deep queues and, under ``PARTITION BEST``, more instances than the
    pool has consumer workers.  The stall timeout turns a deadlock into a
    failure within seconds instead of a hang."""

    CHUNKS = 8  # bulk loads -> row groups per node -> BEST instances per node
    ROWS = 40

    @pytest.fixture(autouse=True)
    def _frequent_thread_switches(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(previous)

    def _cluster(self) -> tuple[VerticaCluster, dict[str, np.ndarray]]:
        cluster = VerticaCluster(node_count=2, pipeline=PipelineConfig(
            batch_rows=1, queue_depth=1, stall_timeout_seconds=5.0))
        rng = np.random.default_rng(5)
        loads = [{"k": rng.integers(0, 12, self.ROWS),
                  "seq": np.arange(chunk * self.ROWS, (chunk + 1) * self.ROWS)}
                 for chunk in range(self.CHUNKS)]
        cluster.create_table_like("ev", loads[0])  # round-robin segments
        for columns in loads:
            cluster.bulk_load("ev", columns)
        cluster.register_udtf(_Arrivals())
        return cluster, {name: np.concatenate([c[name] for c in loads])
                         for name in loads[0]}

    def test_partition_best_with_more_instances_than_workers(self):
        cluster, table = self._cluster()
        result = cluster.sql(
            "SELECT arrivals(k, seq) OVER (PARTITION BEST) FROM ev")
        # 16 instances against max(4, node_count) = 4 consumer workers.
        assert cluster.metrics.counter("udtf_instances").value == 2 * self.CHUNKS
        # Contiguous node-major ranges, concatenated in instance order, are
        # exactly the table in storage order.
        scanned = cluster.gather_table("ev", ["k", "seq"])
        assert np.array_equal(result.column("seq"), scanned["seq"])
        order = np.argsort(result.column("seq"))
        assert np.array_equal(result.column("seq")[order], table["seq"])
        assert np.array_equal(result.column("k")[order], table["k"])

    def test_partition_by_delivers_node_major_scan_order(self):
        cluster, table = self._cluster()
        result = cluster.sql(
            "SELECT arrivals(k, seq) OVER (PARTITION BY k) FROM ev")
        query_span = cluster.tracer.roots()[-1]
        instance, k, seq = (result.column(name)
                            for name in ("instance", "k", "seq"))
        order = np.argsort(seq)
        assert np.array_equal(seq[order], table["seq"])
        assert np.array_equal(k[order], table["k"])
        for key in np.unique(k):
            assert len(np.unique(instance[k == key])) == 1
        # Each instance sees its rows in node-major scan order.
        scanned = cluster.gather_table("ev", ["seq"])["seq"]
        position = np.empty(len(scanned), dtype=np.int64)
        position[scanned] = np.arange(len(scanned))
        for i in np.unique(instance):
            assert np.all(np.diff(position[seq[instance == i]]) > 0)
        # Every instance span carries the same attributes as under NODES.
        spans = [span for span in query_span.walk()
                 if span.name == "udtf.instance"]
        assert len(spans) == 2
        for span in spans:
            assert span.attributes["node"] == span.attributes["instance"]
            assert span.attributes["backpressure_s"] >= 0.0


class _SlowWatcher(TransformFunction):
    """Consumes its stream slowly, recording the live-batch gauge."""

    name = "slowWatch"

    def __init__(self, metrics):
        self.metrics = metrics
        self.peak_live_batches = 0.0

    def process(self, ctx, args, params):
        rows = len(next(iter(args.values()))) if args else 0
        return {"rows": np.asarray([rows], dtype=np.int64)}

    def process_stream(self, ctx, batches, params):
        total = 0
        for batch in batches:
            live = self.metrics.gauge("pipeline_inflight_batches").now
            self.peak_live_batches = max(self.peak_live_batches, live)
            time.sleep(0.002)  # let producers race ahead into the queues
            total += len(next(iter(batch.values())))
        return {"rows": np.asarray([total], dtype=np.int64)}


class _FailOnFirstBatch(TransformFunction):
    """Raises once the producers have queued batches behind its first."""

    name = "failFirst"

    def process_stream(self, ctx, batches, params):
        next(batches)
        time.sleep(0.05)  # let the producers fill the queues
        raise ValueError("instance failed")


class TestBackpressure:
    def test_queue_depth_bounds_live_batches(self):
        queue_depth = 2
        cluster = build_cluster(batch_rows=32, queue_depth=queue_depth)
        watcher = _SlowWatcher(cluster.metrics)
        cluster.register_udtf(watcher)
        result = cluster.sql(
            "SELECT slowWatch(a) OVER (PARTITION NODES) FROM pts")
        assert result.column("rows").sum() == ROUNDS * ROWS_PER_ROUND

        total_batches = cluster.metrics.counter("batches_scanned").value
        # Per node: queue_depth batches queued, one in the consumer's hands,
        # one in the producer/source hand-over.
        bound = NODE_COUNT * (queue_depth + 2)
        assert total_batches > bound  # the bound is actually exercised
        assert watcher.peak_live_batches <= bound
        assert cluster.metrics.gauge("pipeline_inflight_batches").peak <= bound
        # Everything charged to the gauges was discharged.
        assert cluster.metrics.gauge("pipeline_inflight_batches").now == 0
        assert cluster.metrics.gauge("pipeline_inflight_bytes").now == 0

    @pytest.mark.parametrize("partition", ["NODES", "BEST", "BY k"])
    def test_failed_udtf_discharges_inflight_gauges(self, partition):
        """Batches still queued when an instance fails are released from
        the in-flight gauges, so a failed statement cannot inflate every
        later statement's peak."""
        cluster = build_cluster(batch_rows=8, queue_depth=2)
        cluster.register_udtf(_FailOnFirstBatch())
        with pytest.raises(ValueError, match="instance failed"):
            cluster.sql(
                f"SELECT failFirst(a) OVER (PARTITION {partition}) FROM pts")
        assert cluster.metrics.gauge("pipeline_inflight_batches").now == 0
        assert cluster.metrics.gauge("pipeline_inflight_bytes").now == 0

    def test_streaming_telemetry_counters(self):
        cluster = build_cluster(batch_rows=64)
        cluster.sql("SELECT k FROM pts")
        snapshot = cluster.metrics.snapshot()
        assert snapshot["batches_scanned"] > NODE_COUNT
        assert snapshot["rows_streamed"] == ROUNDS * ROWS_PER_ROUND
        assert snapshot["peak_batch_bytes"] > 0
        assert snapshot["pipeline_inflight_bytes_peak"] > 0


def inflight_bytes_bound(telemetry: dict, queue_depth: int) -> float:
    """The most one UDTF statement can have in flight: every instance's
    queue full, plus per node one batch in the source hand-over and one in
    a consumer's hands.  With one instance per node this is ``node_count x
    (queue_depth + 2)`` batches; it never grows with the table."""
    batches = (telemetry["udtf_instances"] * queue_depth + 2 * NODE_COUNT)
    return batches * telemetry["peak_batch_bytes"]


class TestTransferParity:
    def test_darray_bit_identical_and_streaming_lowers_peak(self):
        """The acceptance bar: same wire bytes and the same darray however
        the scan is batched, the darray holds exactly the loaded rows, and
        peak in-flight bytes stay under the queue-depth bound."""
        load_kwargs = {"rounds": 5, "rows": 8_000}
        queue_depth = 2

        def transfer(batch_rows):
            cluster = build_cluster(batch_rows, queue_depth, **load_kwargs)
            with start_session(node_count=NODE_COUNT,
                               instances_per_node=2) as session:
                darray = db2darray(cluster, "pts", ["a", "b", "y"],
                                   session, chunk_rows=4_096)
                collected = darray.collect()
                frames = session.metrics.counter("vft_frames_received").value
            return collected, frames, cluster.metrics.snapshot()

        runs = [transfer(batch_rows) for batch_rows in (64, 1_024, 8_192)]
        first_data, first_frames, first_tel = runs[0]
        table = loaded(**load_kwargs)
        rows = np.column_stack([table["a"], table["b"], table["y"]])
        assert np.array_equal(
            first_data[np.lexsort(first_data.T[::-1])],
            rows[np.lexsort(rows.T[::-1])])
        for data, frames, telemetry in runs:
            assert np.array_equal(data, first_data)
            assert frames == first_frames > 0
            assert telemetry["vft_bytes_sent"] == first_tel["vft_bytes_sent"]
            peak = telemetry["pipeline_inflight_bytes_peak"]
            assert 0 < peak <= inflight_bytes_bound(telemetry, queue_depth)
        # At 64-row batches that bound is a sliver of the table: in-flight
        # memory follows the queue depth, not the data size.
        assert inflight_bytes_bound(first_tel, queue_depth) < rows.nbytes / 10


class TestPipelineConfig:
    def test_invalid_config_rejected(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            PipelineConfig(batch_rows=0)
        with pytest.raises(ExecutionError):
            PipelineConfig(queue_depth=0)

    def test_one_path_no_mode_knob(self):
        assert [field.name for field in dataclasses.fields(PipelineConfig)] \
            == ["batch_rows", "queue_depth", "stall_timeout_seconds"]
        with pytest.raises(TypeError):
            PipelineConfig(mode="streaming")


class TestMutationTransferParity:
    """Transfers and predictions over *live* MVCC state — delete vectors
    that haven't been purged and WOS rows that haven't been moved out —
    must be bit-for-bit identical to a fresh table pre-materialized with
    the same surviving rows in the same order."""

    DELETE_BELOW = 3_000

    @staticmethod
    def _parked_mover():
        """Thresholds no test can hit, so WOS rows stay unflushed."""
        from repro.vertica.txn.mover import TupleMoverConfig

        return TupleMoverConfig(moveout_rows=1 << 30,
                                moveout_age_seconds=1e9)

    def _base_and_trickle(self):
        rng = np.random.default_rng(33)
        n = 1_200
        base = {
            "k": rng.integers(0, 10_000, n),
            "c0": rng.normal(size=n),
            "c1": rng.normal(size=n),
            "c2": rng.normal(size=n),
        }
        trickles = []
        for batch in range(3):
            m = 7
            trickles.append({
                "k": rng.integers(0, 10_000, m),
                "c0": rng.normal(size=m),
                "c1": rng.normal(size=m),
                "c2": rng.normal(size=m),
            })
        return base, trickles

    def _clusters(self):
        base, trickles = self._base_and_trickle()

        mutated = VerticaCluster(node_count=NODE_COUNT,
                                 mover=self._parked_mover())
        mutated.create_table_like("m", base, HashSegmentation("k"))
        mutated.bulk_load("m", base)
        mutated.sql(f"DELETE FROM m WHERE k < {self.DELETE_BELOW}")
        table = mutated.catalog.get_table("m")
        for batch in trickles:
            table.insert(batch, direct=False)

        # Preconditions: the mutations really are live, not materialized.
        assert sum(seg.wos_rows for seg in table.segments) == 21
        assert mutated.metrics.gauge("delete_vector_rows").now > 0

        keep = base["k"] >= self.DELETE_BELOW
        survivors = {name: array[keep] for name, array in base.items()}
        materialized = VerticaCluster(node_count=NODE_COUNT)
        materialized.create_table_like("m", base, HashSegmentation("k"))
        materialized.bulk_load("m", survivors)
        # A segment scans its WOS as one batch, so the trickle rows are
        # one load here: same rows, same order, same batch boundaries.
        materialized.bulk_load("m", {
            name: np.concatenate([batch[name] for batch in trickles])
            for name in base})
        return mutated, materialized

    def test_export_frames_bit_identical(self):
        mutated, materialized = self._clusters()

        def transfer(cluster):
            with start_session(node_count=NODE_COUNT,
                               instances_per_node=2) as session:
                darray = db2darray(cluster, "m", ["c0", "c1", "c2"],
                                   session, chunk_rows=256)
                collected = darray.collect()
                frames = session.metrics.counter("vft_frames_received").value
            return collected, frames, cluster.metrics.snapshot()

        live_data, live_frames, live_tel = transfer(mutated)
        flat_data, flat_frames, flat_tel = transfer(materialized)

        assert np.array_equal(live_data, flat_data)
        assert live_frames == flat_frames > 0
        assert live_tel["vft_bytes_sent"] == flat_tel["vft_bytes_sent"]
        assert live_tel["vft_rows_sent"] == flat_tel["vft_rows_sent"]
        # The transfer itself must not have flushed or purged anything.
        table = mutated.catalog.get_table("m")
        assert sum(seg.wos_rows for seg in table.segments) == 21
        assert mutated.metrics.gauge("delete_vector_rows").now > 0

    def test_prediction_udtf_parity_over_live_mutations(self):
        mutated, materialized = self._clusters()
        model = KMeansModel(
            centers=np.asarray([[0.5, 0.5, 0.5], [-0.5, -0.5, -0.5]]),
            inertia=0.0, iterations=1, converged=True,
            n_observations=2, cluster_sizes=np.asarray([1, 1]),
        )
        query = ("SELECT kmeansPredict(c0, c1, c2 "
                 "USING PARAMETERS model='km') "
                 "OVER (PARTITION BEST) FROM m")
        results = []
        for cluster in (mutated, materialized):
            deploy_model(cluster, model, "km")
            results.append(cluster.sql(query))
        assert_results_match(results[1], results[0])
        assert len(results[0]) == len(
            materialized.sql("SELECT k FROM m"))


class TestResultSetRows:
    def test_rows_materialize_python_scalars(self):
        result = build_cluster().sql("SELECT k, a FROM pts LIMIT 3")
        rows = result.rows()
        assert len(rows) == 3
        for key, value in rows:
            assert isinstance(key, int) and not isinstance(key, np.integer)
            assert isinstance(value, float)
