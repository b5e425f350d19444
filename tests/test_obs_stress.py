"""Concurrent-writer stress for the metrics registry and the span tracer.

A thread pool hammers shared instruments and one shared span tree, then the
totals and structural invariants are checked exactly — lost updates or torn
tree links fail deterministically.  Run under ``REPROLINT_LOCK_CHECK=1``
(``make race``) to additionally prove the instrument/span locks stay leaves
in the lock order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

THREADS = 8
ROUNDS = 400


def hammer(fn):
    """Run ``fn(thread_index)`` on THREADS threads; propagate exceptions."""
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        for future in [pool.submit(fn, i) for i in range(THREADS)]:
            future.result()


class TestRegistryStress:
    def test_counter_no_lost_updates(self):
        registry = MetricsRegistry()

        def work(_):
            counter = registry.counter("rows_scanned")
            for _ in range(ROUNDS):
                counter.add(1)

        hammer(work)
        assert registry.counter("rows_scanned").value == THREADS * ROUNDS

    def test_gauge_balanced_traffic_returns_to_zero(self):
        registry = MetricsRegistry()

        def work(i):
            gauge = registry.gauge("pipeline_inflight_bytes")
            for _ in range(ROUNDS):
                # Paired charge/release per iteration: every prefix of the
                # interleaving is non-negative, so the clamp never distorts
                # and the final level must be exactly zero.
                gauge.add(i + 1)
                gauge.add(-(i + 1))

        hammer(work)
        gauge = registry.gauge("pipeline_inflight_bytes")
        assert gauge.now == 0
        assert 1 <= gauge.peak <= sum(range(1, THREADS + 1))

    def test_histogram_count_and_sum_exact(self):
        registry = MetricsRegistry()

        def work(_):
            histogram = registry.histogram("query_seconds")
            for _ in range(ROUNDS):
                histogram.observe(0.5)

        hammer(work)
        stats = registry.histogram("query_seconds").stats()
        assert stats["count"] == THREADS * ROUNDS
        assert stats["sum"] == THREADS * ROUNDS * 0.5
        assert stats["min"] == stats["max"] == 0.5

    def test_concurrent_get_or_create_yields_one_instrument(self):
        registry = MetricsRegistry()
        seen = []

        def work(_):
            seen.append(registry.counter("rows_scanned"))

        hammer(work)
        assert len({id(instrument) for instrument in seen}) == 1

    def test_registry_concurrent_mixed_traffic(self):
        """Every instrument kind written at once through one registry,
        each thread resolving its handles per call as cold paths do."""
        registry = MetricsRegistry()

        def work(i):
            for _ in range(ROUNDS):
                registry.counter("rows_scanned").add(2)
                registry.gauge("pipeline_inflight_bytes").add(8)
                registry.gauge("pipeline_inflight_bytes").add(-8)
                registry.gauge("peak_batch_bytes").observe_max(i)
                registry.histogram("query_seconds").observe(0.5)

        hammer(work)
        snap = registry.snapshot()
        assert snap["rows_scanned"] == THREADS * ROUNDS * 2
        assert snap["pipeline_inflight_bytes_now"] == 0
        assert snap["peak_batch_bytes"] == THREADS - 1
        assert snap["query_seconds_count"] == THREADS * ROUNDS


class TestTracerStress:
    def test_fanout_spans_all_attach_to_parent(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            parent = tracer.current()

            def work(i):
                for j in range(ROUNDS // 10):
                    with tracer.span("scan.node", parent=parent,
                                     node=i) as span:
                        span.add(rows=1)

            hammer(work)
        expected = THREADS * (ROUNDS // 10)
        assert len(root.children) == expected
        assert all(child.parent is root for child in root.children)
        assert all(child.end is not None for child in root.children)
        assert root.total("rows") == expected
        # Fan-out children are not tracer roots.
        assert tracer.roots() == [root]

    def test_concurrent_attribute_updates_exact(self):
        tracer = Tracer()
        with tracer.span("span") as span:
            def work(i):
                for _ in range(ROUNDS):
                    span.add(rows=1, bytes=8)
                    span.max(peak=i)

            hammer(work)
        assert span.attributes["rows"] == THREADS * ROUNDS
        assert span.attributes["bytes"] == THREADS * ROUNDS * 8
        assert span.attributes["peak"] == THREADS - 1

    def test_independent_trees_per_thread(self):
        """Parentless spans opened on pool threads become separate roots —
        the ambient context never leaks across threads."""
        tracer = Tracer(max_roots=THREADS * 4)

        def work(i):
            with tracer.span(f"root-{i}") as root:
                with tracer.span("child"):
                    pass
            assert root.parent is None
            assert len(root.children) == 1

        hammer(work)
        roots = tracer.roots()
        assert len(roots) == THREADS
        assert {root.name for root in roots} == {
            f"root-{i}" for i in range(THREADS)}

    def test_walk_during_concurrent_attachment(self):
        """walk()/total() stay safe while children attach concurrently."""
        tracer = Tracer()
        with tracer.span("query") as root:
            parent = tracer.current()
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                def attach(i):
                    for _ in range(50):
                        with tracer.span("s", parent=parent) as span:
                            span.add(rows=1)

                futures = [pool.submit(attach, i) for i in range(THREADS)]
                for _ in range(20):
                    # Reading mid-storm must not raise or double-count.
                    assert root.total("rows") <= THREADS * 50
                for future in futures:
                    future.result()
        assert root.total("rows") == THREADS * 50
