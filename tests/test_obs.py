"""The observability layer: typed metrics, span tracing, PROFILE, exporters.

Covers the contracts the rest of the system leans on:

* instruments exist only as declared in the ``CATALOG``, enforce their
  declared kinds and clamp/accumulate correctly (including the
  gauge-after-``reset`` regression and atomic ``Gauge.set``);
* span trees nest across threads and engines, and ``PROFILE`` subtree
  row/byte totals reconcile with the scan counters;
* exporters produce loadable chrome-trace payloads.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro.errors import SqlSyntaxError
from repro.obs.export import (
    chrome_trace_events,
    span_to_dict,
    write_trace_artifact,
)
from repro.obs.metrics import CATALOG, MetricsRegistry
from repro.obs.trace import Tracer, add_to_current, max_to_current
from repro.vertica import HashSegmentation, VerticaCluster


def make_cluster(rows=600, nodes=3, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    columns = {
        "k": rng.integers(0, 1000, rows),
        "a": rng.normal(size=rows),
        "b": rng.normal(size=rows),
    }
    cluster = VerticaCluster(node_count=nodes, **kwargs)
    cluster.create_table_like("pts", columns, HashSegmentation("k"))
    cluster.bulk_load("pts", columns)
    return cluster


# -- instruments ---------------------------------------------------------------


class TestInstruments:
    def test_counter_accumulates_and_snapshots_bare_name(self):
        registry = MetricsRegistry()
        registry.counter("rows_scanned").add(5)
        registry.counter("rows_scanned").add(7)
        assert registry.snapshot()["rows_scanned"] == 12

    def test_declared_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="monotonic"):
            registry.counter("rows_scanned").add(-1)

    def test_undeclared_name_raises_at_first_use(self):
        registry = MetricsRegistry()
        for get in (registry.counter, registry.gauge, registry.histogram):
            with pytest.raises(ValueError, match="not declared"):
                get("not_in_catalog")
        assert registry.snapshot() == {}

    def test_gauge_set_replaces_level_and_raises_peak(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("model_staleness_epochs")
        gauge.set(4)
        gauge.set(1)  # below the peak: level drops, peak stays
        assert (gauge.now, gauge.peak) == (1, 4)
        gauge.set(9)  # above the peak: both move
        assert (gauge.now, gauge.peak) == (9, 9)
        gauge.set(-3)  # clamped like add()
        assert (gauge.now, gauge.peak) == (0, 9)

    def test_gauge_set_from_many_threads_keeps_one_level(self):
        """Concurrent setters leave one of their levels, never a sum."""
        registry = MetricsRegistry()
        gauge = registry.gauge("sample_staleness_epochs")
        levels = range(1, 17)
        start = threading.Barrier(len(levels))

        def setter(level):
            start.wait(timeout=10)
            for _ in range(200):
                gauge.set(level)

        threads = [threading.Thread(target=setter, args=(level,))
                   for level in levels]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gauge.now in levels
        assert gauge.peak == max(levels)

    def test_gauge_level_clamps_at_zero_and_tracks_peak(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("pipeline_inflight_bytes")
        assert gauge.add(100) == 100
        assert gauge.add(50) == 150
        assert gauge.add(-500) == 0  # clamped, not -350
        snap = registry.snapshot()
        assert snap["pipeline_inflight_bytes_now"] == 0
        assert snap["pipeline_inflight_bytes_peak"] == 150

    def test_gauge_clamp_after_reset_regression(self):
        """In-flight decrements arriving after reset() must not leave the
        level stuck below zero."""
        registry = MetricsRegistry()
        gauge = registry.gauge("pipeline_inflight_bytes")
        gauge.add(4096)  # producer charges
        registry.reset()  # snapshot boundary mid-stream
        assert gauge.add(-4096) == 0  # consumer releases post-reset
        assert gauge.add(1000) == 1000  # next stream sees a sane level

    def test_watermark_gauge_snapshots_bare_name(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("peak_batch_bytes")
        gauge.observe_max(10)
        gauge.observe_max(5)
        assert registry.snapshot() == {"peak_batch_bytes": 10}

    def test_histogram_stats_and_snapshot_keys(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("query_seconds")
        assert histogram.stats() == {"count": 0, "sum": 0.0, "min": 0.0,
                                     "max": 0.0}
        for value in (0.5, 0.1, 0.9):
            histogram.observe(value)
        snap = registry.snapshot()
        assert snap["query_seconds_count"] == 3
        assert snap["query_seconds_sum"] == pytest.approx(1.5)
        assert snap["query_seconds_min"] == 0.1
        assert snap["query_seconds_max"] == 0.9

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("rows_scanned")
        with pytest.raises(TypeError, match="counter"):
            registry.gauge("rows_scanned")
        # Declared-kind mismatch fails even before first use.
        with pytest.raises(TypeError, match="declared"):
            registry.counter("pipeline_inflight_bytes")

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("rows_scanned").add(3)
        registry.histogram("query_seconds").observe(1.0)
        registry.reset()
        snap = registry.snapshot()
        assert snap["rows_scanned"] == 0
        assert snap["query_seconds_count"] == 0

    def test_catalog_specs_are_well_formed(self):
        for name, spec in CATALOG.items():
            assert spec.name == name
            assert spec.description.endswith(".")
            assert spec.module.startswith("repro.")
            assert not (spec.watermark and spec.kind != "gauge")


# -- tracing -------------------------------------------------------------------


class TestTracer:
    def test_ambient_nesting_same_thread(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent is outer
        assert outer.children == [inner]
        assert [span.name for span in outer.walk()] == ["outer", "inner"]
        assert tracer.roots() == [outer]

    def test_explicit_parent_crosses_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        tracer = Tracer()
        with tracer.span("query") as query:
            parent = tracer.current()

            def work(i):
                with tracer.span("scan.node", parent=parent, node=i) as span:
                    span.add(rows=10)

            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(work, range(4)))
        assert len(query.children) == 4
        assert query.total("rows") == 40
        assert tracer.roots() == [query]  # children are not roots

    def test_root_flag_detaches(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("standalone", root=True) as standalone:
                pass
        assert standalone.parent is None
        assert [root.name for root in tracer.roots()] == ["outer", "standalone"]

    def test_error_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        root = tracer.last_root()
        assert root.error == "ValueError: nope"
        assert root.end is not None

    def test_ambient_helpers_noop_without_span(self):
        add_to_current(rows=5)  # must not raise
        max_to_current(peak=5)

    def test_ambient_helpers_land_on_active_span(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            add_to_current(rows=2)
            add_to_current(rows=3)
            max_to_current(peak=7)
            max_to_current(peak=4)
        assert span.attributes["rows"] == 5
        assert span.attributes["peak"] == 7

    def test_roots_bounded(self):
        tracer = Tracer(max_roots=4)
        for i in range(10):
            with tracer.span(f"r{i}"):
                pass
        assert [root.name for root in tracer.roots()] == [
            "r6", "r7", "r8", "r9"]

    def test_cross_engine_tree(self):
        """Children attach to the parent span object even when a different
        tracer opened it (cluster query under a DR session's transfer)."""
        a, b = Tracer(), Tracer()
        with a.span("vft.transfer") as transfer:
            with b.span("query") as query:
                pass
        assert query.parent is transfer
        assert b.roots() == []  # nested: not a root of either tracer


# -- PROFILE -------------------------------------------------------------------


class TestProfile:
    def test_profile_scan_reconciles_with_counters(self):
        cluster = make_cluster()
        before = cluster.metrics.snapshot()
        result = cluster.sql("PROFILE SELECT k, a FROM pts WHERE a > 0")
        after = cluster.metrics.snapshot()
        columns = result.as_arrays()
        assert list(columns) == ["operator", "wall_ms", "rows", "bytes",
                                 "detail"]
        operators = list(columns["operator"])
        assert operators[0] == "query"
        assert operators[1].strip() == "scan"
        assert sum(op.strip() == "scan.node" for op in operators) == 3
        # Subtree totals on the root row == counter deltas for the query.
        scanned = after["rows_scanned"] - before.get("rows_scanned", 0)
        byted = after["bytes_scanned"] - before.get("bytes_scanned", 0)
        assert columns["rows"][0] == scanned == 600
        assert columns["bytes"][0] == byted > 0
        assert (columns["wall_ms"] >= 0).all()

    def test_profile_runs_the_query(self):
        cluster = make_cluster()
        result = cluster.sql("PROFILE SELECT COUNT(*) AS n FROM pts")
        detail = result.as_arrays()["detail"][0]
        assert "result_rows=1" in detail

    def test_profile_prediction_instance_attributes(self):
        cluster = make_cluster(rows=900)
        from repro.deploy import deploy_model
        from repro.algorithms.glm import GlmModel

        model = GlmModel(coefficients=np.array([0.0, 1.0, -1.0]),
                         family="gaussian", link="identity", intercept=True,
                         iterations=1, deviance=0.0, null_deviance=0.0,
                         converged=True, n_observations=900)
        deploy_model(cluster, model, "m")
        result = cluster.sql(
            "PROFILE SELECT glmPredict(a, b USING PARAMETERS model='m') "
            "OVER (PARTITION NODES) FROM pts")
        columns = result.as_arrays()
        operators = [op.strip() for op in columns["operator"]]
        assert operators.count("udtf.instance") == 3
        instance_rows = [
            detail for op, detail in zip(operators, columns["detail"])
            if op == "udtf.instance"
        ]
        total_in = sum(
            int(dict(kv.split("=") for kv in d.split(", "))["rows_in"])
            for d in instance_rows
        )
        assert total_in == 900
        assert columns["rows"][0] == 900  # producer-side subtree total

    def test_profile_join_shows_both_input_scans(self):
        cluster = make_cluster()
        before = cluster.metrics.counter("rows_scanned").value
        result = cluster.sql(
            "PROFILE SELECT COUNT(*) AS n FROM pts x JOIN pts y ON x.k = y.k")
        columns = result.as_arrays()
        operators = [op.strip() for op in columns["operator"]]
        assert operators[:2] == ["query", "join"]
        # One scan.node per node per input, then the fold over the joined
        # batch; the root row reconciles with the counter delta.
        assert operators.count("scan.node") == 6
        assert operators[-1] == "aggregate.node"
        assert columns["rows"][0] \
            == cluster.metrics.counter("rows_scanned").value - before == 1200

    @pytest.mark.parametrize("select", [
        "COUNT(*) AS n, SUM(x.a) AS s",   # aggregate over the probe side
        "x.k, y.b AS yb",                 # plain scan over the probe side
    ])
    def test_join_emits_one_scan_span_per_node_per_input(self, select):
        cluster = make_cluster()
        before = cluster.metrics.counter("rows_scanned").value
        cluster.sql(f"SELECT {select} FROM pts x JOIN pts y ON x.k = y.k")
        join = cluster.tracer.last_root().children[0]
        assert join.name == "join"
        scans = [span for span in join.children if span.name == "scan.node"]
        # The build input's node scans, then the probe input's.
        assert [span.attributes["node"] for span in scans] == [0, 1, 2] * 2
        assert sum(span.total("rows") for span in scans) \
            == cluster.metrics.counter("rows_scanned").value - before == 1200

    def test_profile_rejects_non_select(self):
        cluster = make_cluster()
        with pytest.raises(SqlSyntaxError, match="SELECT"):
            cluster.sql("PROFILE DROP TABLE pts")


# -- query spans and histograms ------------------------------------------------


class TestQueryInstrumentation:
    def test_sql_records_query_span_and_histogram(self):
        cluster = make_cluster()
        cluster.sql("SELECT COUNT(*) AS n FROM pts")
        root = cluster.tracer.last_root()
        assert root.name == "query"
        assert root.attributes["statement"].startswith("SELECT COUNT(*)")
        assert root.attributes["result_rows"] == 1
        stats = cluster.metrics.histogram("query_seconds").stats()
        assert stats["count"] >= 1
        assert stats["sum"] > 0

    def test_backpressure_counter_counts_blocking(self):
        from repro.vertica.pipeline import BatchQueue

        metrics = MetricsRegistry()
        queue = BatchQueue(maxdepth=1, metrics=metrics)
        queue.put({"a": np.zeros(4)})
        consumer = iter(queue)
        timer = threading.Timer(0.05, lambda: next(consumer))
        timer.start()
        queue.put({"a": np.zeros(4)})  # blocks until the timer drains one
        timer.join()
        assert queue.blocked_seconds > 0
        assert metrics.counter("pipeline_backpressure_seconds").value > 0


# -- exporters -----------------------------------------------------------------


class TestExport:
    def make_tree(self):
        tracer = Tracer()
        with tracer.span("query", statement="SELECT 1") as root:
            with tracer.span("scan") as scan:
                scan.add(rows=10, bytes=80)
        return root

    def test_chrome_trace_events_shape(self):
        root = self.make_tree()
        events = chrome_trace_events([root])
        assert [event["name"] for event in events] == ["query", "scan"]
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        assert events[1]["args"]["rows"] == 10

    def test_span_to_dict_nests(self):
        tree = span_to_dict(self.make_tree())
        assert tree["name"] == "query"
        assert tree["children"][0]["attributes"]["bytes"] == 80

    def test_write_trace_artifact_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("rows_scanned").add(10)
        path = write_trace_artifact(
            tmp_path / "nested" / "t.trace.json", [self.make_tree()],
            registries=[registry], meta={"test": "x"},
        )
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == 2
        assert payload["spans"][0]["name"] == "query"
        assert payload["metrics"][0]["rows_scanned"] == 10
        assert payload["meta"] == {"test": "x"}

    def test_chrome_trace_empty(self):
        assert chrome_trace_events([]) == []


# -- cross-engine trees --------------------------------------------------------


class TestTransferTrace:
    def test_vft_transfer_tree_connects_engines(self):
        from repro.dr.session import start_session
        from repro.transfer.db2darray import db2darray

        cluster = make_cluster(rows=400)
        with start_session(node_count=3, instances_per_node=1) as session:
            darray = db2darray(cluster, "pts", ["a", "b"], session)
            transfer = [root for root in session.tracer.roots()
                        if root.name == "vft.transfer"][-1]
            names = [child.name for child in transfer.children]
            assert "query" in names and "vft.finalize" in names
            assert transfer.attributes["rows_transferred"] == 400
            # The cluster-side query span nests under the session-side
            # transfer span, and its UDTF instances carry VFT attributes.
            query = transfer.children[names.index("query")]
            instance_spans = [span for span in query.walk()
                              if span.name == "udtf.instance"]
            assert sum(span.attributes.get("vft_rows", 0)
                       for span in instance_spans) == 400
            darray.free()

    def test_dr_task_spans_attach_to_dispatcher(self):
        from repro.dr.session import start_session

        with start_session(node_count=2, instances_per_node=1) as session:
            with session.tracer.span("algorithm.iteration") as iteration:
                session.foreach(range(4), lambda i: i * i)
            tasks = [span for span in iteration.walk()
                     if span.name == "dr.task"]
            assert len(tasks) == 4
            assert {span.attributes["partition"] for span in tasks} == set(range(4))

    def test_yarn_spans_on_session_lifecycle(self):
        from repro.dr.session import start_session
        from repro.yarn.resource_manager import NodeCapacity, ResourceManager

        manager = ResourceManager(
            [NodeCapacity(cores=4, memory_bytes=8 << 30) for _ in range(2)])
        session = start_session(node_count=2, instances_per_node=1,
                                yarn=manager)
        allocate = [root for root in session.tracer.roots()
                    if root.name == "yarn.allocate"]
        assert allocate and allocate[0].attributes["granted"] == 2
        assert manager.metrics.counter("yarn_containers_granted").value == 2
        session.shutdown()
        release = [root for root in session.tracer.roots()
                   if root.name == "yarn.release"]
        assert release
        assert manager.metrics.counter("yarn_containers_released").value == 2
