"""Tests for the reprolint static-analysis suite and the runtime race probe.

Each of the six checkers gets a minimal positive fixture (purpose-built bad
code the rule must flag) and a negative fixture (idiomatic code it must not
flag).  The runtime half proves :class:`InstrumentedLock` detects a
deliberately inverted lock order, and that clean nesting passes.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from reprolint.baseline import load_baseline
from reprolint.cli import run as reprolint_run
from reprolint.core import FileContext, ProjectContext, get_checker
from reprolint.runtime import (
    InstrumentedLock,
    LockOrderInversion,
    LockOrderMonitor,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def check_snippet(rule: str, source: str, relpath: str = "src/repro/dr/x.py"):
    """Run one checker over an inline fixture; returns unsuppressed violations."""
    ctx = FileContext(Path(relpath), relpath, textwrap.dedent(source))
    checker = get_checker(rule)
    assert checker.applies_to(relpath), f"{rule} should apply to {relpath}"
    return [v for v in checker.check(ctx) if not ctx.is_suppressed(v)]


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

LOCKED_CLASS_BAD = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def put(self, key, value):
            self._items[key] = value        # mutation without the lock

        def bump(self):
            self._count += 1                # ditto, AugAssign form
"""

LOCKED_CLASS_GOOD = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}
            self._init_cache()              # init helper: exempt

        def _init_cache(self):
            self._cache = {}

        def put(self, key, value):
            with self._lock:
                self._items[key] = value

        def _evict_locked(self, key):
            self._items.pop(key, None)      # *_locked: caller holds the lock

        def read(self, key):
            with self._lock:
                return self._items.get(key)
"""


def test_lock_discipline_flags_unguarded_mutation():
    violations = check_snippet("lock-discipline", LOCKED_CLASS_BAD)
    assert len(violations) == 2
    assert all(v.rule == "lock-discipline" for v in violations)
    assert violations[0].symbol == "Store.put"
    assert "_items" in violations[0].message
    assert violations[1].symbol == "Store.bump"


def test_lock_discipline_accepts_guarded_and_conventions():
    assert check_snippet("lock-discipline", LOCKED_CLASS_GOOD) == []


def test_lock_discipline_ignores_classes_without_sync_primitives():
    source = """
        class Plain:
            def __init__(self):
                self._x = 0

            def bump(self):
                self._x += 1
    """
    assert check_snippet("lock-discipline", source) == []


def test_lock_discipline_semaphore_class_needs_a_real_lock():
    source = """
        import threading

        class Pool:
            def __init__(self):
                self._slots = [threading.BoundedSemaphore(2)]
                self._closed = False

            def close(self):
                self._closed = True
    """
    violations = check_snippet("lock-discipline", source)
    assert len(violations) == 1
    assert "no lock attribute" in violations[0].message


# ---------------------------------------------------------------------------
# exception-hygiene
# ---------------------------------------------------------------------------

def test_exception_hygiene_flags_bare_and_swallowed():
    source = """
        def pump():
            try:
                step()
            except:
                pass

        def drain():
            try:
                step()
            except Exception as exc:
                log(exc)
    """
    violations = check_snippet(
        "exception-hygiene", source, relpath="src/repro/transfer/x.py"
    )
    assert len(violations) == 2
    assert "bare" in violations[0].message
    assert "swallows" in violations[1].message


def test_exception_hygiene_accepts_translation_and_narrow_catches():
    source = """
        from repro.errors import TransferError

        def pump():
            try:
                step()
            except Exception as exc:
                raise TransferError("stream failed") from exc

        def parse(x):
            try:
                return int(x)
            except ValueError:
                return 0
    """
    assert check_snippet(
        "exception-hygiene", source, relpath="src/repro/dr/x.py"
    ) == []


def test_exception_hygiene_scoped_to_hot_paths():
    checker = get_checker("exception-hygiene")
    assert checker.applies_to("src/repro/vertica/executor.py")
    assert not checker.applies_to("src/repro/harness/report.py")
    assert not checker.applies_to("tests/test_transfer.py")


# ---------------------------------------------------------------------------
# conformability-api
# ---------------------------------------------------------------------------

def test_conformability_flags_direct_partition_writes():
    source = """
        def corrupt(arr, block):
            arr.partitions[0].nrow = 7
            arr.partitions[1] = None
            arr._store(1, block, 3, 2, block.nbytes)
    """
    violations = check_snippet(
        "conformability-api", source, relpath="src/repro/algorithms/x.py"
    )
    assert len(violations) == 3
    messages = " / ".join(v.message for v in violations)
    assert "PartitionInfo.nrow" in messages
    assert "fill_partition" in messages


def test_conformability_accepts_reads_and_protocol_use():
    source = """
        def inspect(arr, values):
            n = arr.partitions[0].nrow
            arr.fill_partition(0, values)
            return n
    """
    assert check_snippet(
        "conformability-api", source, relpath="src/repro/algorithms/x.py"
    ) == []


def test_conformability_exempts_dr_implementation():
    checker = get_checker("conformability-api")
    assert not checker.applies_to("src/repro/dr/dobject.py")
    assert checker.applies_to("src/repro/deploy/deploy.py")
    assert checker.applies_to("tests/test_dr_engine.py")


# ---------------------------------------------------------------------------
# udf-catalog (project scope)
# ---------------------------------------------------------------------------

def _udf_project(tmp_path: Path, *, register: bool, document: bool) -> ProjectContext:
    module = tmp_path / "src/repro/deploy/predict_functions.py"
    module.parent.mkdir(parents=True)
    body = """
        class ScorePredict:
            name = "scorePredict"

        def standard_prediction_functions():
            return [{factory}]
    """.format(factory="ScorePredict()" if register else "")
    module.write_text(textwrap.dedent(body), encoding="utf-8")

    cluster = tmp_path / "src/repro/vertica/cluster.py"
    cluster.parent.mkdir(parents=True)
    cluster.write_text(
        "def install_standard_functions():\n"
        "    standard_prediction_functions()\n",
        encoding="utf-8",
    )

    docs = tmp_path / "docs/sql_reference.md"
    docs.parent.mkdir(parents=True)
    docs.write_text(
        "| scorePredict | model |\n" if document else "nothing here\n",
        encoding="utf-8",
    )
    return ProjectContext(tmp_path, [])


def test_udf_catalog_flags_unregistered_and_undocumented(tmp_path):
    checker = get_checker("udf-catalog")
    violations = list(
        checker.check_project(_udf_project(tmp_path, register=False, document=False))
    )
    assert len(violations) == 2
    assert "never be registered" in violations[0].message
    assert "not documented" in violations[1].message
    assert all(v.symbol == "ScorePredict" for v in violations)


def test_udf_catalog_clean_when_registered_and_documented(tmp_path):
    checker = get_checker("udf-catalog")
    violations = list(
        checker.check_project(_udf_project(tmp_path, register=True, document=True))
    )
    assert violations == []


def test_udf_catalog_clean_on_real_tree():
    checker = get_checker("udf-catalog")
    assert list(checker.check_project(ProjectContext(REPO_ROOT, []))) == []


# ---------------------------------------------------------------------------
# sim-determinism
# ---------------------------------------------------------------------------

def test_sim_determinism_flags_wall_clock_and_global_rng():
    source = """
        import random
        import time
        import numpy as np

        def sample():
            started = time.time()
            jitter = random.random()
            noise = np.random.normal(0.0, 1.0)
            return started, jitter, noise
    """
    violations = check_snippet(
        "sim-determinism", source, relpath="src/repro/perfmodel/x.py"
    )
    assert len(violations) == 3
    messages = " / ".join(v.message for v in violations)
    assert "wall-clock" in messages
    assert "random.Random(seed)" in messages
    assert "default_rng" in messages


def test_sim_determinism_accepts_seeded_rngs():
    source = """
        import random
        import numpy as np

        def sample(seed):
            rng = np.random.default_rng(seed)
            local = random.Random(seed)
            return rng.normal(), local.random()
    """
    assert check_snippet(
        "sim-determinism", source, relpath="src/repro/perfmodel/x.py"
    ) == []


def test_sim_determinism_scoped_to_sim_code():
    checker = get_checker("sim-determinism")
    assert checker.applies_to("src/repro/perfmodel/queueing.py")
    assert checker.applies_to("src/repro/perfmodel/calibration.py")
    # transfer timing legitimately uses perf_counter on real work
    assert not checker.applies_to("src/repro/transfer/db2darray.py")


# ---------------------------------------------------------------------------
# thread-hygiene
# ---------------------------------------------------------------------------

def test_thread_hygiene_flags_mutable_defaults_and_daemons():
    source = """
        import threading

        def collect(x, acc=[]):
            acc.append(x)
            return acc

        def spawn(fn):
            t = threading.Thread(target=fn, daemon=True)
            t.start()
            return t
    """
    violations = check_snippet("thread-hygiene", source)
    assert len(violations) == 2
    assert "mutable default" in violations[0].message
    assert "daemon" in violations[1].message


def test_thread_hygiene_accepts_none_default_and_joined_threads():
    source = """
        import threading

        def collect(x, acc=None):
            acc = [] if acc is None else acc
            acc.append(x)
            return acc

        def run(fn):
            t = threading.Thread(target=fn)
            t.start()
            t.join()
    """
    assert check_snippet("thread-hygiene", source) == []


ENGINE_THREADS = """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    class QueryExecutor:
        def _fan_out(self, task, count):
            with ThreadPoolExecutor(max_workers=count) as pool:
                return list(pool.map(task, range(count)))

        def _execute_udtf(self, produce):
            producer = threading.Thread(target=produce)
            producer.start()
            producer.join()
            with ThreadPoolExecutor(max_workers=2) as pool:
                pool.submit(produce)

    class TupleMover:
        def notify(self):
            self._thread = threading.Thread(target=self._run)
            self._thread.start()
"""


def test_thread_hygiene_flags_engine_threads_outside_the_fan_out():
    violations = check_snippet("thread-hygiene", ENGINE_THREADS,
                               relpath="src/repro/vertica/executor.py")
    assert sorted((v.symbol, v.message.split("(")[0]) for v in violations) == [
        ("QueryExecutor._execute_udtf", "Thread"),
        ("QueryExecutor._execute_udtf", "ThreadPoolExecutor"),
        ("TupleMover.notify", "Thread"),  # the mover's site is mover.py
    ]


def test_thread_hygiene_allows_the_engine_thread_sites_only_there():
    mover = check_snippet("thread-hygiene", ENGINE_THREADS,
                          relpath="src/repro/vertica/txn/mover.py")
    assert {v.symbol for v in mover} == {"QueryExecutor._fan_out",
                                         "QueryExecutor._execute_udtf"}
    # Outside the query engine, joined threads and pools are fine.
    assert check_snippet("thread-hygiene", ENGINE_THREADS,
                         relpath="src/repro/dr/session.py") == []


# ---------------------------------------------------------------------------
# no-full-materialization
# ---------------------------------------------------------------------------

def test_materialization_flags_whole_table_calls_on_hot_paths():
    source = """
        def run(self, table, cluster):
            everything = cluster.gather_table(table, ["a", "b"])
            node = table.iter_node_batches(0, ["a"])
            segment = table.segments[0].iter_batches(["a"], snapshot=None)
            stream = cluster._stream_node_with_failover(table, 0, ["a"])
            return everything, node, segment, stream
    """
    violations = check_snippet(
        "no-full-materialization", source,
        relpath="src/repro/vertica/executor.py",
    )
    assert [v.message.split("'")[1] for v in violations] == [
        "gather_table", "iter_node_batches", "iter_batches",
        "_stream_node_with_failover",
    ]
    assert all("stream rowgroup batches" in v.message for v in violations)


def test_side_reads_flagged_everywhere_but_the_scan_sources():
    source = """
        def refresh(table, cluster, snapshot):
            for batch in table.iter_node_batches(0, ["a"], snapshot=snapshot):
                yield batch
            yield from table.segments[0].iter_batches(["a"], snapshot=snapshot)
            yield from cluster._stream_node_with_failover(table, 0, ["a"])
            yield cluster.gather_table(table, ["a"])
    """
    for relpath in ("src/repro/deploy/refresh.py", "src/repro/aqp/build.py",
                    "src/repro/vertica/txn/mutations.py",
                    "src/repro/storage/files.py"):
        violations = check_snippet("no-full-materialization", source,
                                   relpath=relpath)
        # The collector is fine off the hot paths; the side reads are not.
        assert [v.message.split("'")[1] for v in violations] == [
            "iter_node_batches", "iter_batches", "_stream_node_with_failover",
        ], relpath
    # The two files that implement the scan sources read below them.
    for relpath in ("src/repro/vertica/cluster.py",
                    "src/repro/vertica/table.py"):
        violations = check_snippet("no-full-materialization", source,
                                   relpath=relpath)
        assert [v.message.split("'")[1] for v in violations] == (
            ["gather_table"] if relpath.endswith("cluster.py") else [])


def test_materialization_accepts_streaming_and_local_defs():
    source = """
        def run(self, table, cluster, needed):
            # A *definition* named like a forbidden call is fine — only
            # calls materialize.
            def scan_node(source):
                return list(source)

            for source in cluster.stream_table_per_node(table, needed):
                yield from source()
    """
    assert check_snippet(
        "no-full-materialization", source,
        relpath="src/repro/transfer/vft.py",
    ) == []


def test_materialization_scoped_to_hot_paths():
    source = """
        def pull(cluster, table):
            return cluster.gather_table(table, ["a"])
    """
    checker = get_checker("no-full-materialization")
    assert not checker.applies_to("tests/test_vertica_engine.py")
    assert not checker.applies_to("benchmarks/bench_fig16_glm_predict.py")
    assert checker.applies_to("src/repro/vertica/cluster.py")
    assert checker.applies_to("src/repro/vertica/joins.py")
    assert checker.applies_to("src/repro/vertica/odbc.py")
    assert checker.applies_to("src/repro/transfer/streams.py")
    for relpath in ("src/repro/vertica/joins.py", "src/repro/vertica/odbc.py"):
        assert len(check_snippet(
            "no-full-materialization", source, relpath=relpath)) == 1
    for relpath in ("src/repro/vertica/table.py", "src/repro/aqp/rewrite.py",
                    "src/repro/deploy/refresh.py"):
        assert check_snippet(
            "no-full-materialization", source, relpath=relpath) == []


def test_materialization_flags_gathering_in_operators_only():
    source = """
        from repro.vertica.pipeline import concat_batches

        def probe(sources):
            batch = concat_batches([b for source in sources for b in source()])
            return batch
    """
    for relpath in ("src/repro/vertica/executor.py",
                    "src/repro/vertica/joins.py"):
        violations = check_snippet("no-full-materialization", source,
                                   relpath=relpath)
        assert [v.message.split("'")[1] for v in violations] \
            == ["concat_batches"]
        assert [v.symbol for v in violations] == ["probe"]
    # Framing code may buffer batches: VFT packs them into frames.
    for relpath in ("src/repro/transfer/vft.py", "src/repro/vertica/cluster.py"):
        assert check_snippet("no-full-materialization", source,
                             relpath=relpath) == []


def test_materialization_baseline_holds_only_the_join_build_side():
    baseline = load_baseline(REPO_ROOT / "reprolint.baseline")
    entries = [entry for entry in baseline.entries
               if entry.rule == "no-full-materialization"]
    assert [(entry.path, entry.symbol) for entry in entries] \
        == [("src/repro/vertica/joins.py", "_BuildSide.__init__")]


# ---------------------------------------------------------------------------
# snapshot-reads
# ---------------------------------------------------------------------------

def test_snapshot_reads_flags_raw_segment_reads():
    source = """
        def pull(self, segment, columns):
            batches = list(segment.iter_batches(columns, None, counter))
            deltas = list(segment.iter_batches(columns, since_epoch=3))
            return batches, deltas
    """
    violations = check_snippet(
        "snapshot-reads", source, relpath="src/repro/transfer/vft.py",
    )
    assert [v.message.split("'")[1] for v in violations] == [
        "iter_batches", "iter_batches",
    ]
    assert all("bypasses delete-vector" in v.message for v in violations)


def test_snapshot_reads_accepts_explicit_snapshot():
    source = """
        def pull(self, segment, columns, snapshot):
            for batch in segment.iter_batches(columns, snapshot=snapshot):
                yield batch
            # snapshot=None documents "resolve the latest committed epoch".
            yield from segment.iter_batches(columns, snapshot=None)
    """
    assert check_snippet(
        "snapshot-reads", source, relpath="src/repro/vertica/executor.py",
    ) == []


def test_snapshot_reads_exempts_storage_and_txn_layers():
    checker = get_checker("snapshot-reads")
    assert not checker.applies_to("src/repro/storage/files.py")
    assert not checker.applies_to("src/repro/vertica/txn/mover.py")
    assert not checker.applies_to("src/repro/vertica/table.py")
    assert checker.applies_to("src/repro/vertica/executor.py")
    assert checker.applies_to("src/repro/transfer/vft.py")
    assert not checker.applies_to("tests/test_vertica_engine.py")


# ---------------------------------------------------------------------------
# registry-drift (RL901/RL902/RL903, project scope)
# ---------------------------------------------------------------------------

def _drift_project(tmp_path: Path, engine_body: str) -> ProjectContext:
    """Fake src/ tree with tiny registry modules and one engine file."""
    metrics = tmp_path / "src/repro/obs/metrics.py"
    metrics.parent.mkdir(parents=True)
    metrics.write_text(
        textwrap.dedent(
            """
            def _spec(name, kind):
                return name

            CATALOG = {
                "rows.scanned": _spec("rows.scanned", "counter"),
                "bytes.sent": _spec("bytes.sent", "counter"),
            }
            """
        ),
        encoding="utf-8",
    )

    sites = tmp_path / "src/repro/faults/sites.py"
    sites.parent.mkdir(parents=True)
    sites.write_text(
        'FAULT_SITES = {"vft.send_chunk": "chunk send", "dr.task": "task"}\n',
        encoding="utf-8",
    )

    trace = tmp_path / "src/repro/obs/trace.py"
    trace.write_text(
        'SPAN_TAXONOMY = {"query": "one statement", "scan": "a scan"}\n',
        encoding="utf-8",
    )

    engine = tmp_path / "src/repro/vertica/engine.py"
    engine.parent.mkdir(parents=True)
    engine.write_text(textwrap.dedent(engine_body), encoding="utf-8")

    return ProjectContext(tmp_path, [metrics, sites, trace, engine])


def test_metric_drift_catches_undeclared_metric_names(tmp_path):
    project = _drift_project(
        tmp_path,
        """
        def run(self, plan):
            self.metrics.counter("rows.scanned").add(3)      # declared: fine
            self.metrics.gauge("rows.scaned").observe_max(9) # typo: drift
            counter = self.registry.counter("bytes.snt")     # typo: drift
            plan.record("anything.goes")                     # not a metric API
        """,
    )
    checker = get_checker("metric-drift")
    violations = list(checker.check_project(project))
    assert sorted(v.message.split("'")[1] for v in violations) == [
        "bytes.snt", "rows.scaned",
    ]
    assert all(v.code == "RL901" for v in violations)
    assert all("CATALOG" in v.message for v in violations)


def test_metric_drift_checks_every_receiver(tmp_path):
    """A hoisted handle or any other receiver name is checked too: only
    the method and the literal first argument matter."""
    project = _drift_project(
        tmp_path,
        """
        def run(self, cluster):
            m = cluster.metrics
            m.counter("rows.scaned").add()          # typo: drift
            sink = self._sink
            sink.histogram("bytes.snt").observe(1)  # typo: drift
            m.gauge("bytes.sent")                   # declared: fine
        """,
    )
    violations = list(get_checker("metric-drift").check_project(project))
    assert sorted(v.message.split("'")[1] for v in violations) == [
        "bytes.snt", "rows.scaned",
    ]


def test_fault_site_drift_catches_unregistered_sites(tmp_path):
    project = _drift_project(
        tmp_path,
        """
        def run(self, plan):
            plan.perturb("vft.send_chunk")   # registered: fine
            plan.perturb("vft.send_chnk")    # typo: drift
            plan.perturb(self.site)          # dynamic: out of scope
        """,
    )
    checker = get_checker("fault-site-drift")
    violations = list(checker.check_project(project))
    assert len(violations) == 1
    assert violations[0].code == "RL902"
    assert "vft.send_chnk" in violations[0].message
    assert "FAULT_SITES" in violations[0].message


def test_span_drift_catches_untaxonomied_span_names(tmp_path):
    project = _drift_project(
        tmp_path,
        """
        def run(self):
            with self.tracer.span("query"):   # documented: fine
                with self.tracer.span("quary"):
                    pass
        """,
    )
    checker = get_checker("span-drift")
    violations = list(checker.check_project(project))
    assert len(violations) == 1
    assert violations[0].code == "RL903"
    assert "quary" in violations[0].message
    assert "SPAN_TAXONOMY" in violations[0].message


def test_registry_drift_clean_engine_passes(tmp_path):
    project = _drift_project(
        tmp_path,
        """
        def run(self, plan):
            self.metrics.counter("rows.scanned").add(1)
            self.metrics.gauge("bytes.sent").add(64)
            plan.perturb("dr.task")
            with self.tracer.span("scan", node=0):
                pass
        """,
    )
    for rule in ("metric-drift", "fault-site-drift", "span-drift"):
        assert list(get_checker(rule).check_project(project)) == []


def test_registry_drift_reports_missing_registry(tmp_path):
    """A moved/renamed registry module is itself a finding, not a silent pass."""
    project = _drift_project(tmp_path, "def run(self): pass\n")
    (tmp_path / "src/repro/faults/sites.py").unlink()
    violations = list(get_checker("fault-site-drift").check_project(project))
    assert len(violations) == 1
    assert "cannot extract FAULT_SITES" in violations[0].message


def test_registry_drift_ignores_tests(tmp_path):
    """tests/ may invent ad-hoc metric/site/span names freely."""
    project = _drift_project(tmp_path, "def run(self): pass\n")
    test_file = tmp_path / "tests/test_x.py"
    test_file.parent.mkdir()
    test_file.write_text(
        'def test_x(plan):\n    plan.perturb("made.up.site")\n',
        encoding="utf-8",
    )
    project = ProjectContext(tmp_path, list(project.files) + [test_file])
    assert list(get_checker("fault-site-drift").check_project(project)) == []


# ---------------------------------------------------------------------------
# model-type-drift (RL904, project scope)
# ---------------------------------------------------------------------------

def _model_type_project(tmp_path: Path, *, codec: bool,
                        predictor: bool) -> ProjectContext:
    """Fake tree: one algorithm declaring model_type='widget', with the
    deploy registries optionally covering it."""
    algo = tmp_path / "src/repro/algorithms/widget.py"
    algo.parent.mkdir(parents=True)
    algo.write_text(
        textwrap.dedent(
            """
            class WidgetModel:
                model_type = "widget"

            class _Helper:
                pass
            """
        ),
        encoding="utf-8",
    )

    serialize = tmp_path / "src/repro/deploy/serialize.py"
    serialize.parent.mkdir(parents=True)
    codec_call = (
        'register_model_codec("widget", WidgetModel, to_state, from_state)\n'
        if codec else ""
    )
    serialize.write_text(
        "def register_model_codec(name, cls, to_state, from_state): pass\n"
        'register_model_codec("glm", None, None, None)\n' + codec_call,
        encoding="utf-8",
    )

    predict = tmp_path / "src/repro/deploy/predict_functions.py"
    predictor_cls = (
        'class WidgetPredict:\n    expected_model_type = "widget"\n'
        if predictor else ""
    )
    predict.write_text(
        'class GlmPredict:\n    expected_model_type = "glm"\n' + predictor_cls,
        encoding="utf-8",
    )

    return ProjectContext(tmp_path, [algo, serialize, predict])


def test_model_type_drift_flags_missing_codec_and_predictor(tmp_path):
    checker = get_checker("model-type-drift")
    violations = list(checker.check_project(
        _model_type_project(tmp_path, codec=False, predictor=False)
    ))
    assert len(violations) == 2
    assert all(v.code == "RL904" for v in violations)
    assert all(v.symbol == "WidgetModel" for v in violations)
    assert "no serializer" in violations[0].message
    assert "no prediction function" in violations[1].message


def test_model_type_drift_flags_one_sided_gaps(tmp_path):
    checker = get_checker("model-type-drift")
    no_codec = list(checker.check_project(
        _model_type_project(tmp_path / "a", codec=False, predictor=True)
    ))
    assert [v.message for v in no_codec] and "no serializer" in no_codec[0].message
    no_predict = list(checker.check_project(
        _model_type_project(tmp_path / "b", codec=True, predictor=False)
    ))
    assert len(no_predict) == 1
    assert "no prediction function" in no_predict[0].message


def test_model_type_drift_clean_when_both_registered(tmp_path):
    checker = get_checker("model-type-drift")
    assert list(checker.check_project(
        _model_type_project(tmp_path, codec=True, predictor=True)
    )) == []


def test_model_type_drift_accepts_make_prediction_function(tmp_path):
    project = _model_type_project(tmp_path, codec=True, predictor=False)
    predict = tmp_path / "src/repro/deploy/predict_functions.py"
    predict.write_text(
        predict.read_text(encoding="utf-8")
        + 'fn = make_prediction_function("widgetPredict", "widget", score)\n',
        encoding="utf-8",
    )
    assert list(get_checker("model-type-drift").check_project(project)) == []


def test_model_type_drift_reports_missing_registry(tmp_path):
    project = _model_type_project(tmp_path, codec=True, predictor=True)
    (tmp_path / "src/repro/deploy/serialize.py").unlink()
    violations = list(get_checker("model-type-drift").check_project(project))
    assert len(violations) == 1
    assert "cannot extract" in violations[0].message


def test_model_type_drift_clean_on_real_tree():
    """Every model family in the live tree is fully wired into deploy."""
    checker = get_checker("model-type-drift")
    assert list(checker.check_project(ProjectContext(REPO_ROOT, []))) == []


# ---------------------------------------------------------------------------
# manifest-drift (RL905, project scope)
# ---------------------------------------------------------------------------

#: Per subsystem: its package, the owner prefixes its manifest declares, and
#: one owned entry per central registry (metric name, emitting module).
SUBSYSTEMS = {
    "serving": {
        "package": "serving",
        "prefixes": ("repro.serving", "serve.", "serving."),
        "metric": ("sessions_active", "repro.serving.server"),
        "span": "serve.admit",
        "site": "serving.admit",
    },
    "aqp": {
        "package": "aqp",
        "prefixes": ("repro.aqp", "aqp.", "aqp."),
        "metric": ("samples_built", "repro.aqp.build"),
        "span": "aqp.rewrite",
        "site": "aqp.refresh",
    },
    "widget": {
        "package": "widget",
        "prefixes": ("repro.widget", "widget.", "widget."),
        "metric": ("widgets_made", "repro.widget.factory"),
        "span": "widget.make",
        "site": "widget.make",
    },
}


def _manifest(subsystem: str, metrics=None, spans=None, sites=None,
              omit: str | None = None) -> str:
    """A manifest body for ``subsystem``; each section defaults to exactly
    the names it owns, and ``omit`` drops one constant entirely."""
    sub = SUBSYSTEMS[subsystem]
    module_prefix, span_prefix, site_prefix = sub["prefixes"]
    constants = {
        "DOCS": repr(f"docs/{subsystem}.md"),
        "METRICS_MODULE_PREFIX": repr(module_prefix),
        "SPAN_PREFIX": repr(span_prefix),
        "FAULT_SITE_PREFIX": repr(site_prefix),
        "METRICS": repr(tuple(metrics if metrics is not None
                              else [sub["metric"][0]])),
        "SPANS": repr(tuple(spans if spans is not None else [sub["span"]])),
        "FAULT_SITES": repr(tuple(sites if sites is not None
                                  else [sub["site"]])),
    }
    return "".join(f"{name} = {value}\n" for name, value in constants.items()
                   if name != omit)


def _manifest_project(tmp_path: Path, manifests: dict[str, str],
                      registered=tuple(SUBSYSTEMS)) -> ProjectContext:
    """Fake tree: central registries holding one unowned entry plus one
    owned entry per ``registered`` subsystem, and the given manifests."""
    specs = {"rows.scanned": "repro.vertica.engine"}
    spans, sites = {"query": "q"}, {"dr.task": "t"}
    for subsystem in registered:
        sub = SUBSYSTEMS[subsystem]
        name, module = sub["metric"]
        specs[name] = module
        spans[sub["span"]] = "s"
        sites[sub["site"]] = "s"

    metrics = tmp_path / "src/repro/obs/metrics.py"
    metrics.parent.mkdir(parents=True)
    metrics.write_text(
        "def _spec(name, kind, unit, description, module):\n"
        "    return name\n\nCATALOG = {\n" + "".join(
            f"    {name!r}: _spec({name!r}, 'counter', '1', 'd', {module!r}),\n"
            for name, module in specs.items()) + "}\n",
        encoding="utf-8",
    )
    faults = tmp_path / "src/repro/faults/sites.py"
    faults.parent.mkdir(parents=True)
    faults.write_text(f"FAULT_SITES = {sites!r}\n", encoding="utf-8")
    trace = tmp_path / "src/repro/obs/trace.py"
    trace.write_text(f"SPAN_TAXONOMY = {spans!r}\n", encoding="utf-8")

    files = [metrics, faults, trace]
    for subsystem, body in manifests.items():
        manifest = tmp_path / f"src/repro/{SUBSYSTEMS[subsystem]['package']}/instruments.py"
        manifest.parent.mkdir(parents=True)
        manifest.write_text(body, encoding="utf-8")
        files.append(manifest)
    return ProjectContext(tmp_path, files)


def _manifest_violations(project: ProjectContext) -> list:
    return list(get_checker("manifest-drift").check_project(project))


@pytest.mark.parametrize("subsystem", ["serving", "aqp"])
def test_manifest_complete_passes(tmp_path, subsystem):
    project = _manifest_project(
        tmp_path, {subsystem: _manifest(subsystem)}, registered=[subsystem])
    assert _manifest_violations(project) == []


@pytest.mark.parametrize("subsystem", ["serving", "aqp"])
def test_manifest_catches_unregistered_names(tmp_path, subsystem):
    """Forward direction: every manifest entry must exist in its registry."""
    owned = SUBSYSTEMS[subsystem]["metric"][0]
    project = _manifest_project(
        tmp_path, {subsystem: _manifest(subsystem, metrics=[owned, owned + "x"])},
        registered=[subsystem])
    violations = _manifest_violations(project)
    assert len(violations) == 1
    assert violations[0].code == "RL905"
    assert owned + "x" in violations[0].message
    assert "does not exist" in violations[0].message


@pytest.mark.parametrize("subsystem", ["serving", "aqp"])
def test_manifest_catches_unlisted_registry_entries(tmp_path, subsystem):
    """Reverse direction: a registry entry the manifest's prefixes mark as
    owned (span, site, or metric emitting module) must be listed."""
    project = _manifest_project(
        tmp_path, {subsystem: _manifest(subsystem, spans=[])},
        registered=[subsystem])
    violations = _manifest_violations(project)
    assert len(violations) == 1
    assert SUBSYSTEMS[subsystem]["span"] in violations[0].message
    assert "missing from SPANS" in violations[0].message
    assert f"docs/{subsystem}.md" in violations[0].message


def test_third_subsystem_needs_no_lint_code(tmp_path):
    """Adding a manifest is all a new subsystem does: the rule finds it and
    checks it beside the others, each against its own prefixes."""
    manifests = {name: _manifest(name) for name in SUBSYSTEMS}
    manifests["widget"] = _manifest("widget", metrics=[])
    project = _manifest_project(tmp_path, manifests)
    violations = _manifest_violations(project)
    assert len(violations) == 1
    assert violations[0].path == "src/repro/widget/instruments.py"
    assert "'widgets_made'" in violations[0].message
    assert "missing from METRICS" in violations[0].message


def test_serving_manifest_missing_file_is_a_finding(tmp_path):
    """No manifest at all is reported, never a silent pass."""
    project = _manifest_project(
        tmp_path, {"serving": _manifest("serving")}, registered=["serving"])
    (tmp_path / "src/repro/serving/instruments.py").unlink()
    violations = _manifest_violations(project)
    assert len(violations) == 1
    assert "cannot extract the instruments manifest" in violations[0].message


def test_serving_manifest_missing_tuple_is_a_finding(tmp_path):
    project = _manifest_project(
        tmp_path, {"serving": _manifest("serving", omit="FAULT_SITES")},
        registered=["serving"])
    violations = _manifest_violations(project)
    assert any("FAULT_SITES tuple" in v.message for v in violations)


def test_manifest_missing_prefix_is_a_finding(tmp_path):
    project = _manifest_project(
        tmp_path, {"aqp": _manifest("aqp", omit="SPAN_PREFIX")},
        registered=["aqp"])
    violations = _manifest_violations(project)
    assert len(violations) == 1
    assert "cannot extract the SPAN_PREFIX constant" in violations[0].message


def test_serving_registry_drift_clean_on_real_tree():
    """Every live manifest (serving's and AQP's) agrees with the live
    registries, both ways."""
    assert _manifest_violations(ProjectContext(REPO_ROOT, [])) == []


# ---------------------------------------------------------------------------
# suppressions and baseline
# ---------------------------------------------------------------------------

def test_inline_suppression_silences_one_rule():
    source = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}

            def put(self, key, value):
                self._items[key] = value  # reprolint: ignore[lock-discipline]
    """
    assert check_snippet("lock-discipline", source) == []


def test_inline_suppression_is_rule_specific():
    source = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()

            def put(self, key, value):
                self._items[key] = value  # reprolint: ignore[sim-determinism]
    """
    assert len(check_snippet("lock-discipline", source)) == 1


def test_baseline_requires_justification(tmp_path):
    baseline_file = tmp_path / "reprolint.baseline"
    baseline_file.write_text(
        "lock-discipline | src/x.py | Store.put |\n", encoding="utf-8"
    )
    baseline = load_baseline(baseline_file)
    assert baseline.entries == []
    assert any("no justification" in err for err in baseline.errors)


def test_baseline_accepts_matching_violation(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    (src_dir / "bad.py").write_text(textwrap.dedent(LOCKED_CLASS_BAD), encoding="utf-8")
    baseline_file = tmp_path / "reprolint.baseline"

    # Without a baseline: violations reported, exit 1.
    import io

    out = io.StringIO()
    assert reprolint_run(tmp_path, ["src"], select=["lock-discipline"], out=out) == 1
    assert "lock-discipline" in out.getvalue()

    baseline_file.write_text(
        "lock-discipline | src/bad.py | Store.put | demo fixture\n"
        "lock-discipline | src/bad.py | Store.bump | demo fixture\n",
        encoding="utf-8",
    )
    out = io.StringIO()
    assert reprolint_run(tmp_path, ["src"], select=["lock-discipline"], out=out) == 0
    assert "2 baselined" in out.getvalue()


def test_stale_baseline_entries_fail_the_run(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    (src_dir / "bad.py").write_text(textwrap.dedent(LOCKED_CLASS_BAD), encoding="utf-8")
    (tmp_path / "reprolint.baseline").write_text(
        "lock-discipline | src/bad.py | Store.put | demo fixture\n"
        "lock-discipline | src/bad.py | Store.bump | demo fixture\n"
        "lock-discipline | src/bad.py | Store.gone | method was deleted\n",
        encoding="utf-8",
    )
    import io

    out = io.StringIO()
    assert reprolint_run(tmp_path, ["src"], select=["lock-discipline"], out=out) == 1
    assert "stale-baseline" in out.getvalue()
    assert "Store.gone" in out.getvalue()


def test_prune_baseline_drops_only_stale_entries(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    (src_dir / "bad.py").write_text(textwrap.dedent(LOCKED_CLASS_BAD), encoding="utf-8")
    baseline_file = tmp_path / "reprolint.baseline"
    baseline_file.write_text(
        "# accepted findings\n"
        "\n"
        "lock-discipline | src/bad.py | Store.put | demo fixture\n"
        "lock-discipline | src/bad.py | Store.gone | method was deleted\n"
        "lock-discipline | src/bad.py | Store.bump | demo fixture\n",
        encoding="utf-8",
    )
    import io

    out = io.StringIO()
    assert reprolint_run(
        tmp_path, ["src"], select=["lock-discipline"], prune=True, out=out
    ) == 0
    assert "pruned 1 stale" in out.getvalue()
    assert baseline_file.read_text(encoding="utf-8") == (
        "# accepted findings\n"
        "\n"
        "lock-discipline | src/bad.py | Store.put | demo fixture\n"
        "lock-discipline | src/bad.py | Store.bump | demo fixture\n"
    )

    # A second prune is a no-op: nothing stale remains.
    out = io.StringIO()
    assert reprolint_run(
        tmp_path, ["src"], select=["lock-discipline"], prune=True, out=out
    ) == 0
    assert "pruned" not in out.getvalue()


def test_prune_baseline_does_not_mask_violations(tmp_path):
    """--prune-baseline still exits 1 when unbaselined findings remain."""
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    (src_dir / "bad.py").write_text(textwrap.dedent(LOCKED_CLASS_BAD), encoding="utf-8")
    baseline_file = tmp_path / "reprolint.baseline"
    baseline_file.write_text(
        "lock-discipline | src/bad.py | Store.gone | method was deleted\n",
        encoding="utf-8",
    )
    import io

    out = io.StringIO()
    assert reprolint_run(
        tmp_path, ["src"], select=["lock-discipline"], prune=True, out=out
    ) == 1
    assert "Store.put" in out.getvalue()
    assert baseline_file.read_text(encoding="utf-8") == ""


def test_repo_tree_is_clean_end_to_end():
    """`python -m reprolint src tests` exits 0 on the committed tree."""
    proc = subprocess.run(
        [sys.executable, "-m", "reprolint", "src", "tests"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violation(s)" in proc.stdout


# ---------------------------------------------------------------------------
# runtime race probe
# ---------------------------------------------------------------------------

def _acquire_in_thread(fn) -> Exception | None:
    """Run fn in a worker thread, returning the exception it raised (if any)."""
    box: list[Exception | None] = [None]

    def runner():
        try:
            fn()
        except Exception as exc:  # pragma: no cover - assertion carrier
            box[0] = exc

    t = threading.Thread(target=runner)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive(), "probe thread deadlocked"
    return box[0]


def test_instrumented_lock_detects_inverted_order():
    monitor = LockOrderMonitor()
    lock_a = InstrumentedLock("A", monitor=monitor)
    lock_b = InstrumentedLock("B", monitor=monitor)

    def forward():
        with lock_a:
            with lock_b:
                pass

    assert _acquire_in_thread(forward) is None

    # Opposite nesting on another thread: must fail *before* deadlocking.
    def inverted():
        with lock_b:
            with lock_a:
                pass

    error = _acquire_in_thread(inverted)
    assert isinstance(error, LockOrderInversion)
    message = str(error)
    assert "'A'" in message and "'B'" in message


def test_instrumented_lock_accepts_consistent_order():
    monitor = LockOrderMonitor()
    locks = [InstrumentedLock(f"L{i}", monitor=monitor) for i in range(3)]

    def nested():
        with locks[0]:
            with locks[1]:
                with locks[2]:
                    pass

    for _ in range(3):
        assert _acquire_in_thread(nested) is None
    assert monitor.edge_count() >= 2


def test_instrumented_lock_detects_transitive_cycle():
    monitor = LockOrderMonitor()
    a = InstrumentedLock("A", monitor=monitor)
    b = InstrumentedLock("B", monitor=monitor)
    c = InstrumentedLock("C", monitor=monitor)

    def ab():
        with a:
            with b:
                pass

    def bc():
        with b:
            with c:
                pass

    assert _acquire_in_thread(ab) is None
    assert _acquire_in_thread(bc) is None

    # A -> B -> C recorded; acquiring A under C closes the cycle.
    def ca():
        with c:
            with a:
                pass

    error = _acquire_in_thread(ca)
    assert isinstance(error, LockOrderInversion)


def test_instrumented_lock_is_a_drop_in_lock():
    lock = InstrumentedLock("plain", monitor=LockOrderMonitor())
    assert lock.acquire()
    assert lock.locked()
    assert not lock.acquire(blocking=False)
    lock.release()
    assert not lock.locked()
    with lock:
        assert lock.locked()

    # Works as the inner lock of a Condition (queue.Queue does this).
    cond = threading.Condition(InstrumentedLock("cond", monitor=LockOrderMonitor()))
    with cond:
        cond.notify_all()


def test_engine_workflow_has_no_lock_inversions():
    """Exercise the real transfer + predict path under instrumented locks."""
    import numpy as np

    from reprolint import runtime

    runtime.install()
    try:
        from repro import (
            VerticaCluster,
            db2darray_with_response,
            deploy_model,
            hpdglm,
            start_session,
        )

        cluster = VerticaCluster(node_count=2)
        rng = np.random.default_rng(11)
        columns = {
            "a": rng.normal(size=200),
            "b": rng.normal(size=200),
            "y": rng.normal(size=200),
        }
        cluster.create_table_like("probe_pts", columns)
        cluster.bulk_load("probe_pts", columns)

        with start_session(node_count=2, instances_per_node=2) as session:
            y, x = db2darray_with_response(
                cluster, "probe_pts", "y", ["a", "b"], session
            )
            assert x.collect().shape == (200, 2)
            model = hpdglm(y, x, family="gaussian")

        deploy_model(cluster, model, "probe_lm")
        result = cluster.sql(
            "SELECT glmPredict(a, b USING PARAMETERS model='probe_lm') "
            "OVER (PARTITION BEST) FROM probe_pts"
        )
        assert len(result) == 200
    finally:
        runtime.uninstall()
