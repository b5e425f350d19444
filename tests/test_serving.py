"""The serving layer: sessions, pools, admission, and both caches.

Covers the ISSUE-8 cache-correctness matrix — result-cache hit → mutate →
miss for every mutation flavor (INSERT, DELETE, UPDATE, mergeout purge,
model redeploy), ``AT EPOCH`` bypass, bit-identity of cached results
against direct uncached execution — plus admission control (queue-full and
timeout rejections, the ``serving.admit`` fault site) and a concurrent-
session stress that runs green under ``REPROLINT_LOCK_CHECK=1``.
"""

from __future__ import annotations

import copy
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.errors import AdmissionError, ResourceError, ServingError
from repro.faults.plan import FaultKind, FaultPlan, InjectedFault
from repro.serving import PoolConfig, Server
from repro.serving.cache import PlanCache, ResultCache, is_cacheable
from repro.vertica.cluster import VerticaCluster
from repro.vertica.segmentation import HashSegmentation
from repro.vertica.sql.parser import parse
from repro.yarn.resource_manager import NodeCapacity, ResourceManager

MB = 1024 * 1024


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


def make_server(cluster, **pool_kwargs):
    pool_kwargs.setdefault("max_concurrency", 4)
    return Server(cluster, pools=[PoolConfig("general", **pool_kwargs)])


def assert_results_identical(got, want):
    assert got.column_names == want.column_names
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), f"column {name!r} diverged"


def olap_tables(rows=400, customers=20, seed=3):
    """The `olap` workload's fact/dim shape (bench/workloads/olap.py), small."""
    rng = np.random.default_rng(seed)
    fact = {
        "k": np.arange(rows), "ts": np.sort(rng.integers(0, 10 * rows, rows)),
        "g": rng.integers(0, 7, rows), "cust": rng.integers(0, customers, rows),
        "status": np.array(["open", "paid", "void"], dtype=object)[
            rng.integers(0, 3, rows)],
        "qty": rng.integers(1, 50, rows),
        "price": rng.uniform(1.0, 100.0, rows),
        "disc": rng.uniform(0.0, 0.3, rows),
    }
    dim = {"k": np.arange(customers), "cust": np.arange(customers),
           "region": np.array([f"r{c % 4}" for c in range(customers)],
                              dtype=object)}
    return fact, dim


def read_only_statements():
    """(id, sql): bench/olap_queries.sql with its placeholders filled the
    way the workload fills them, plus the statement shapes whose execution
    used to rewrite the AST (aliases, join + WHERE) or derives a second
    statement (WITHIN's exact fallback)."""
    import sql_lint  # tools/ is on sys.path (tests/conftest.py)

    ts = olap_tables()[0]["ts"]
    n = len(ts)
    parameters = {
        "band1_lo": int(ts[int(0.50 * n)]), "band1_hi": int(ts[int(0.51 * n)]),
        "band10_lo": int(ts[int(0.30 * n)]), "band10_hi": int(ts[int(0.40 * n)]),
        "point_key": n // 3,
    }
    corpus = Path(sql_lint.REPO_ROOT, "bench", "olap_queries.sql").read_text()
    statements = list(zip(
        re.findall(r"-- name: (\w+)", corpus),
        (" ".join(text.split()).format(**parameters)
         for _, text in sql_lint.iter_sql_statements(corpus)),
        strict=True))
    aliased = ("SELECT g AS grp, COUNT(*) AS n, SUM(price) AS s FROM fact "
               "GROUP BY grp HAVING n > 1 ORDER BY s DESC, grp LIMIT 5")
    return statements + [
        ("aliases", aliased),
        ("join_where",
         "SELECT f.k, d.region AS r FROM fact f JOIN dim d ON f.cust = d.cust "
         "WHERE f.qty > 40 ORDER BY r, f.k"),
        ("within_sample",
         "SELECT AVG(price) FROM fact WHERE qty > 10 WITHIN 50% ERROR"),
        ("within_exact", "SELECT SUM(price) FROM fact WITHIN 0.001% ERROR"),
        ("explain", "EXPLAIN " + aliased),
        ("profile", "PROFILE " + aliased),
    ]


READ_ONLY_STATEMENTS = read_only_statements()


@pytest.fixture(scope="module")
def olap_cluster():
    fact, dim = olap_tables()
    cluster = VerticaCluster(node_count=3)
    for name, columns in (("fact", fact), ("dim", dim)):
        cluster.create_table_like(name, columns, HashSegmentation("k"))
        cluster.bulk_load(name, columns)
    cluster.sql("CREATE SAMPLE fact_half ON fact UNIFORM RATE 50% SEED 1")
    return cluster


# -- sessions -------------------------------------------------------------


class TestSessions:
    def test_session_lifecycle_and_gauge(self):
        cluster = make_cluster()
        with make_server(cluster) as server:
            assert cluster.metrics.gauge("sessions_active").now == 0
            with server.session() as session:
                assert cluster.metrics.gauge("sessions_active").now == 1
                assert server.active_sessions == 1
                result = session.execute("SELECT COUNT(*) AS n FROM pts")
                assert result.scalar() == 600
                assert session.statements == 1
            assert cluster.metrics.gauge("sessions_active").now == 0
            # Closing twice is idempotent: the gauge never goes negative.
            session.close()
            assert cluster.metrics.gauge("sessions_active").now == 0
            with pytest.raises(ServingError):
                session.execute("SELECT 1")

    def test_unknown_pool_and_closed_server(self):
        cluster = make_cluster()
        server = make_server(cluster)
        with pytest.raises(ServingError):
            server.session(pool="nope")
        server.close()
        server.close()  # idempotent
        with pytest.raises(ServingError):
            server.session()

    def test_serving_matches_direct_execution(self):
        cluster = make_cluster()
        direct = cluster.sql("SELECT k, SUM(a) AS s FROM pts "
                             "GROUP BY k ORDER BY k")
        with make_server(cluster) as server, server.session() as session:
            assert_results_identical(
                session.execute("SELECT k, SUM(a) AS s FROM pts "
                                "GROUP BY k ORDER BY k"),
                direct)

    def test_session_spans_emitted(self):
        cluster = make_cluster()
        with make_server(cluster) as server, server.session() as session:
            session.execute("SELECT COUNT(*) FROM pts")
        names = [span.name for span in cluster.tracer.roots()]
        assert "serve.session" in names
        admits = [s for s in cluster.tracer.roots() if s.name == "serve.admit"]
        assert admits and admits[0].attributes["session"] == session.session_id
        execs = [c for s in admits for c in s.children
                 if c.name == "serve.execute"]
        assert execs, "serve.execute should nest under serve.admit"
        assert any(c.name == "query" for c in execs[0].children)


# -- plan cache -----------------------------------------------------------


class TestPlanCache:
    def test_parse_and_analyze_once_per_text(self):
        cluster = make_cluster()
        with make_server(cluster) as server, server.session() as session:
            session.execute("SELECT SUM(a) FROM pts")
            session.execute("SELECT SUM(a) FROM pts")
            session.execute("SELECT   SUM(a)\n  FROM   pts")  # normalizes
        assert cluster.metrics.counter("plan_cache_misses").value == 1
        assert cluster.metrics.counter("plan_cache_hits").value == 2
        assert len(server.plan_cache) == 1

    def test_comment_stripping_shares_one_plan_entry(self):
        # ``--`` line comments are normalization noise: re-commented copies
        # of the same statement must hit the same prepared plan.
        cluster = make_cluster()
        with make_server(cluster) as server, server.session() as session:
            session.execute("SELECT SUM(a) FROM pts")
            session.execute("SELECT SUM(a) -- total\nFROM pts")
            session.execute("-- leading banner\nSELECT SUM(a)\nFROM pts"
                            " -- trailing, no newline")
        assert cluster.metrics.counter("plan_cache_misses").value == 1
        assert cluster.metrics.counter("plan_cache_hits").value == 2
        assert len(server.plan_cache) == 1

    def test_comment_stripping_preserves_string_literals(self):
        from repro.serving.cache import normalize_sql
        # A ``--`` inside a quoted literal is data, not a comment.
        sql = "SELECT COUNT(*) FROM t WHERE name = '-- keep me'"
        assert normalize_sql(sql) == sql
        # Doubled-quote escapes keep the scanner in string state.
        assert normalize_sql("SELECT 'it''s -- data' -- gone\nFROM t") == \
            "SELECT 'it''s -- data' FROM t"
        # The comment's newline still separates the surrounding tokens.
        assert normalize_sql("SELECT a--c\nFROM t") == "SELECT a FROM t"

    def test_ddl_change_invalidates_prepared_plans(self):
        cluster = make_cluster()
        with make_server(cluster) as server, server.session() as session:
            session.execute("SELECT SUM(a) FROM pts")
            session.execute("CREATE TABLE other (x FLOAT)")
            session.execute("SELECT SUM(a) FROM pts")
        # The second SELECT re-analyzed: its plan was bound to the old
        # catalog version.
        assert cluster.metrics.counter("plan_cache_misses").value >= 2

    def test_lru_eviction(self):
        cluster = make_cluster()
        cache = PlanCache(capacity=2)
        for i in range(4):
            cache.prepare(cluster, f"SELECT COUNT(*) AS n FROM pts WHERE k > {i}")
        assert len(cache) == 2

    @pytest.mark.parametrize("sql", [sql for _, sql in READ_ONLY_STATEMENTS],
                             ids=[name for name, _ in READ_ONLY_STATEMENTS])
    def test_executor_leaves_the_statement_untouched(self, olap_cluster, sql):
        """The executor reads its input: the AST equals a deep copy taken
        before execution, and the one cached ``PreparedStatement.statement``
        object, executed repeatedly, keeps answering like ``cluster.sql``."""
        cluster = olap_cluster
        # PROFILE reports wall times; its operator tree is the stable part.
        columns = ["operator"] if sql.startswith("PROFILE") else None

        def same(got, want):
            if columns is None:
                assert_results_identical(got, want)
            else:
                for name in columns:
                    assert got.column(name).tolist() == want.column(name).tolist()

        statement = parse(sql)
        before = copy.deepcopy(statement)
        direct = cluster.executor.execute(statement)
        assert statement == before
        same(direct, cluster.sql(sql))

        with make_server(cluster) as server, server.session() as session:
            prepared = server.plan_cache.prepare(cluster, sql)
            before = copy.deepcopy(prepared.statement)
            for _ in range(2):
                same(session.execute(sql), direct)
                server.result_cache.clear()   # force re-execution of the AST
            assert server.plan_cache.prepare(cluster, sql) is prepared
            assert prepared.statement == before

    def test_executor_mutation_does_not_corrupt_cached_ast(self):
        # Alias resolution once rewrote GROUP BY/ORDER BY in place; repeated
        # executions of the cached AST must keep returning identical results.
        cluster = make_cluster()
        sql = ("SELECT k AS key, COUNT(*) AS n FROM pts "
               "GROUP BY key ORDER BY key LIMIT 5")
        direct = cluster.sql(sql)
        with make_server(cluster) as server, server.session() as session:
            first = session.execute(sql)
            server.result_cache.clear()   # force re-execution from the AST
            second = session.execute(sql)
        assert_results_identical(first, direct)
        assert_results_identical(second, direct)


# -- result cache ---------------------------------------------------------


class TestResultCache:
    SQL = "SELECT SUM(a) AS s, COUNT(*) AS n FROM pts"

    def test_hit_is_bit_identical_to_uncached_execution(self):
        cluster = make_cluster()
        direct = cluster.sql(self.SQL)
        with make_server(cluster) as server, server.session() as session:
            miss = session.execute(self.SQL)
            hit = session.execute(self.SQL)
        assert cluster.metrics.counter("result_cache_hits").value == 1
        assert cluster.metrics.counter("result_cache_misses").value == 1
        assert_results_identical(miss, direct)
        assert_results_identical(hit, direct)

    @pytest.mark.parametrize("mutation", [
        "INSERT INTO pts VALUES (7, 100.0, 1.0)",
        "DELETE FROM pts WHERE k < 500",
        "UPDATE pts SET a = a + 1.0 WHERE k >= 500",
    ])
    def test_hit_then_mutate_then_miss(self, mutation):
        cluster = make_cluster()
        with make_server(cluster) as server, server.session() as session:
            session.execute(self.SQL)
            session.execute(self.SQL)
            assert cluster.metrics.counter("result_cache_hits").value == 1
            session.execute(mutation)
            fresh = session.execute(self.SQL)
            # The mutated-table key missed and re-executed...
            assert cluster.metrics.counter("result_cache_hits").value == 1
            assert cluster.metrics.counter("result_cache_misses").value == 2
            # ...and the answer matches direct execution of the new state.
            assert_results_identical(fresh, cluster.sql(self.SQL))

    def test_mergeout_purge_invalidates(self):
        cluster = make_cluster()
        with make_server(cluster) as server, server.session() as session:
            session.execute("DELETE FROM pts WHERE k < 500")
            session.execute(self.SQL)
            session.execute(self.SQL)
            assert cluster.metrics.counter("result_cache_hits").value == 1
            cluster.advance_ahm()
            cluster.tuple_mover.run_mergeout()
            fresh = session.execute(self.SQL)
            assert cluster.metrics.counter("result_cache_hits").value == 1
            assert_results_identical(fresh, cluster.sql(self.SQL))

    def test_at_epoch_bypasses_the_result_cache(self):
        cluster = make_cluster()
        with make_server(cluster) as server, server.session() as session:
            before = session.execute(self.SQL)
            epoch = cluster.catalog.epochs.current_epoch
            session.execute("DELETE FROM pts WHERE k < 500")
            historical_sql = f"AT EPOCH {epoch} {self.SQL}"
            hits0 = cluster.metrics.counter("result_cache_hits").value
            misses0 = cluster.metrics.counter("result_cache_misses").value
            first = session.execute(historical_sql)
            second = session.execute(historical_sql)
            # Neither execution touched the result cache.
            assert cluster.metrics.counter("result_cache_hits").value == hits0
            assert cluster.metrics.counter("result_cache_misses").value == misses0
            assert_results_identical(first, before)
            assert_results_identical(second, before)

    def test_returned_arrays_are_isolated_copies(self):
        cluster = make_cluster()
        with make_server(cluster) as server, server.session() as session:
            first = session.execute(self.SQL)
            first.column("s")[0] = -1.0  # client scribbles on its copy
            hit = session.execute(self.SQL)
            assert hit.column("s")[0] != -1.0
            assert_results_identical(hit, cluster.sql(self.SQL))

    def test_non_select_statements_are_not_cached(self):
        cluster = make_cluster()
        with make_server(cluster) as server, server.session() as session:
            session.execute("INSERT INTO pts VALUES (1, 1.0, 1.0)")
            session.execute("INSERT INTO pts VALUES (1, 1.0, 1.0)")
        assert cluster.metrics.counter("result_cache_misses").value == 0
        assert len(server.result_cache) == 0
        assert cluster.sql("SELECT COUNT(*) FROM pts").scalar() == 602

    def test_eviction_respects_byte_and_entry_bounds(self):
        cache = ResultCache(max_bytes=10 * MB, max_entries=3)
        from repro.vertica.executor import ResultSet

        big = ResultSet(["x"], {"x": np.zeros(MB // 2)})  # 4 MB each
        for i in range(4):
            cache.store(("k", i), big)
        assert len(cache) <= 2  # byte bound binds before the entry bound
        assert cache.resident_bytes <= 10 * MB
        # One oversize result is skipped outright.
        cache.store(("huge",), ResultSet(["x"], {"x": np.zeros(2 * MB)}))
        assert cache.lookup(("huge",)) is None

    def test_export_udtf_is_never_cached(self):
        cluster = make_cluster()
        cluster.install_standard_functions()
        udtf = cluster.catalog.get_udtf("ExportToDistributedR")
        assert udtf.cacheable is False
        stmt = parse("SELECT ExportToDistributedR(a USING PARAMETERS "
                     "target='t') OVER (PARTITION BEST) FROM pts")
        assert not is_cacheable(cluster, stmt)

    def test_model_redeploy_invalidates_predict_results(self):
        from repro.algorithms.glm import GlmModel
        from repro.deploy import deploy_model

        cluster = make_cluster(rows=300)
        sql = ("SELECT glmPredict(a, b USING PARAMETERS model='m') "
               "OVER (PARTITION NODES) FROM pts")

        def model(scale):
            return GlmModel(coefficients=np.array([0.0, scale, -scale]),
                            family="gaussian", link="identity", intercept=True,
                            iterations=1, deviance=0.0, null_deviance=0.0,
                            converged=True, n_observations=300)

        deploy_model(cluster, model(1.0), "m")
        with make_server(cluster) as server, server.session() as session:
            first = session.execute(sql)
            session.execute(sql)
            assert cluster.metrics.counter("result_cache_hits").value == 1
            deploy_model(cluster, model(2.0), "m", replace=True)
            fresh = session.execute(sql)
            assert cluster.metrics.counter("result_cache_hits").value == 1
            assert not np.array_equal(fresh.column("prediction"),
                                      first.column("prediction"))
            assert_results_identical(fresh, cluster.sql(sql))

    def test_r_models_select_tracks_catalog_version(self):
        from repro.algorithms.glm import GlmModel
        from repro.deploy import deploy_model

        cluster = make_cluster(rows=300)
        with make_server(cluster) as server, server.session() as session:
            deploy_model(cluster, GlmModel(
                coefficients=np.array([0.0, 1.0, -1.0]), family="gaussian",
                link="identity", intercept=True, iterations=1, deviance=0.0,
                null_deviance=0.0, converged=True, n_observations=300), "m1")
            assert len(session.execute("SELECT model FROM R_Models")) == 1
            deploy_model(cluster, GlmModel(
                coefficients=np.array([0.0, 1.0, -1.0]), family="gaussian",
                link="identity", intercept=True, iterations=1, deviance=0.0,
                null_deviance=0.0, converged=True, n_observations=300), "m2")
            assert len(session.execute("SELECT model FROM R_Models")) == 2

    def test_within_query_tracks_sample_lifecycle(self):
        cluster = make_cluster(rows=2000)
        sql = "SELECT COUNT(*) FROM pts WITHIN 50% ERROR"
        with make_server(cluster) as server, server.session() as session:
            session.execute("CREATE SAMPLE sp ON pts UNIFORM RATE 20%")
            first = session.execute(sql)
            assert first.column("sample_fraction")[0] < 1.0
            session.execute(sql)
            assert cluster.metrics.counter("result_cache_hits").value == 1
            session.execute("DROP SAMPLE sp")
            fresh = session.execute(sql)
            # The AQP-catalog version is in the key: the cached approximate
            # answer missed, and the re-run fell back to exact.
            assert cluster.metrics.counter("result_cache_hits").value == 1
            assert fresh.column("sample_fraction")[0] == 1.0
            assert fresh.column("estimate")[0] == 2000.0


# -- admission control ----------------------------------------------------


class TestAdmission:
    def test_queue_full_rejection(self):
        cluster = make_cluster()
        plan = FaultPlan.single("serving.admit", FaultKind.STALL,
                                stall_seconds=0.5, seed=7)
        cluster.install_fault_plan(plan)
        server = Server(cluster, pools=[PoolConfig(
            "tight", max_concurrency=1, queue_depth=1,
            admission_timeout_seconds=0.1)])
        with server, server.session(pool="tight") as session:
            stalled = threading.Thread(
                target=lambda: session.execute("SELECT COUNT(*) FROM pts"))
            stalled.start()
            # Wait until the stalled statement holds the worker slot.
            pool = server.pool("tight")
            for _ in range(200):
                if pool.running:
                    break
                threading.Event().wait(0.005)
            assert pool.running == 1
            # Distinct SQL texts: a result-cache hit would skip admission.
            filler = threading.Thread(target=lambda: (
                pytest.raises(AdmissionError,
                              session.execute, "SELECT COUNT(*) + 1 FROM pts")))
            filler.start()
            for _ in range(200):
                if pool.queued:
                    break
                threading.Event().wait(0.005)
            with pytest.raises(AdmissionError, match="queue is full"):
                session.execute("SELECT COUNT(*) + 2 FROM pts")
            stalled.join()
            filler.join()
        assert cluster.metrics.counter("statements_rejected").value == 2
        assert cluster.metrics.histogram("admission_queue_seconds").stats()["count"] >= 1

    def test_admission_timeout_rejection(self):
        cluster = make_cluster()
        plan = FaultPlan.single("serving.admit", FaultKind.STALL,
                                stall_seconds=0.4, seed=7)
        cluster.install_fault_plan(plan)
        server = Server(cluster, pools=[PoolConfig(
            "tight", max_concurrency=1, queue_depth=4,
            admission_timeout_seconds=0.05)])
        with server, server.session(pool="tight") as session:
            stalled = threading.Thread(
                target=lambda: session.execute("SELECT COUNT(*) FROM pts"))
            stalled.start()
            pool = server.pool("tight")
            for _ in range(200):
                if pool.running:
                    break
                threading.Event().wait(0.005)
            with pytest.raises(AdmissionError, match="no execution slot"):
                session.execute("SELECT COUNT(*) + 1 FROM pts")
            stalled.join()
        assert cluster.metrics.counter("statements_rejected").value == 1
        # The stalled statement itself completed fine.
        assert cluster.metrics.counter("statements_served").value == 1

    def test_error_fault_fails_the_statement(self):
        cluster = make_cluster()
        plan = FaultPlan.single("serving.admit", FaultKind.ERROR, seed=7)
        cluster.install_fault_plan(plan)
        with make_server(cluster) as server, server.session() as session:
            with pytest.raises(InjectedFault):
                session.execute("SELECT COUNT(*) FROM pts")
            # The slot was released; the next statement runs normally.
            assert session.execute("SELECT COUNT(*) FROM pts").scalar() == 600
        assert plan.fired("serving.admit")

    def test_memory_budget_derives_concurrency(self):
        config = PoolConfig("budgeted", memory_budget_bytes=256 * MB,
                            statement_memory_bytes=64 * MB)
        assert config.concurrency == 4
        explicit = PoolConfig("explicit", max_concurrency=2,
                              memory_budget_bytes=256 * MB)
        assert explicit.concurrency == 2

    def test_yarn_budget_reservation_and_release(self):
        cluster = make_cluster()
        rm = ResourceManager([NodeCapacity(cores=4, memory_bytes=512 * MB)])
        server = Server(
            cluster,
            pools=[PoolConfig("budgeted", memory_budget_bytes=256 * MB)],
            resource_manager=rm,
        )
        granted = rm.metrics.counter("yarn_containers_granted").value
        assert granted >= 1
        server.close()
        assert rm.metrics.counter("yarn_containers_released").value == granted
        # An unsatisfiable budget fails construction instead of overcommitting.
        with pytest.raises(ResourceError):
            Server(cluster,
                   pools=[PoolConfig("huge", memory_budget_bytes=1024 * MB)],
                   resource_manager=rm)


# -- concurrency ----------------------------------------------------------


class TestConcurrentSessions:
    def test_many_sessions_share_the_plan_cache(self):
        """16 threads × 8 statements over 4 SQL texts: exactly 4 analyses,
        every result bit-identical to direct execution.  Runs green under
        REPROLINT_LOCK_CHECK=1 (the race-probe CI job)."""
        cluster = make_cluster()
        texts = [
            "SELECT SUM(a) AS s FROM pts",
            "SELECT COUNT(*) AS n FROM pts",
            "SELECT k, COUNT(*) AS n FROM pts GROUP BY k ORDER BY k LIMIT 3",
            "SELECT MIN(b) AS lo, MAX(b) AS hi FROM pts",
        ]
        expected = {sql: cluster.sql(sql) for sql in texts}
        with Server(cluster, pools=[PoolConfig(
                "general", max_concurrency=8, queue_depth=256)]) as server:

            def client(worker: int) -> int:
                with server.session() as session:
                    for i in range(8):
                        sql = texts[(worker + i) % len(texts)]
                        assert_results_identical(session.execute(sql),
                                                 expected[sql])
                    return session.statements

            with ThreadPoolExecutor(max_workers=16) as pool:
                done = list(pool.map(client, range(16)))
        assert done == [8] * 16
        assert cluster.metrics.counter("plan_cache_misses").value == len(texts)
        assert cluster.metrics.counter("plan_cache_hits").value == 16 * 8 - len(texts)
        assert cluster.metrics.gauge("sessions_active").now == 0
        assert cluster.metrics.counter("statements_served").value == 16 * 8

    def test_concurrent_readers_and_writers_stay_correct(self):
        """Cached reads racing trickle inserts: every served SUM must equal
        a committed prefix of the insert sequence (no torn/stale mixes)."""
        cluster = make_cluster(rows=6)
        cluster.sql("CREATE TABLE ledger (v FLOAT)")
        cluster.sql("INSERT INTO ledger VALUES (0.0)")
        with Server(cluster, pools=[PoolConfig(
                "general", max_concurrency=8, queue_depth=256)]) as server:
            valid = {0.0}
            lock = threading.Lock()

            def writer():
                with server.session() as session:
                    total = 0.0
                    for i in range(1, 31):
                        # Declare the new total *before* the insert commits:
                        # a reader can observe the commit the instant it
                        # lands, but never a sum nobody declared.
                        total += float(i)
                        with lock:
                            valid.add(total)
                        session.execute(f"INSERT INTO ledger VALUES ({i}.0)")

            def reader():
                with server.session() as session:
                    for _ in range(30):
                        got = session.execute(
                            "SELECT SUM(v) AS s FROM ledger").column("s")[0]
                        value = 0.0 if np.isnan(got) else float(got)
                        with lock:
                            ok = value in valid
                        assert ok, f"served sum {value} was never committed"

            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert cluster.sql("SELECT SUM(v) FROM ledger").scalar() == sum(
            float(i) for i in range(31))
