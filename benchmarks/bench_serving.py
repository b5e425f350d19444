"""Serving layer under load: sustained QPS and tail latency at 100+ sessions.

The workload is the mixed traffic the paper's closing sections imply once
models are deployed in the database: mostly repeated OLAP aggregates (where
the epoch-keyed result cache should win), a steady stream of ``glmPredict``
UDTF scoring, and a trickle of ``INSERT``s that keeps invalidating the hot
cache keys.  Each session is one client thread pushing statements through
one `Server`; per-statement latencies give p50/p99 and the total gives QPS.
The run records everything via ``record_property``, so the figures land in
``BENCH_serving.json`` next to the metric deltas.

Correctness rides along: after the storm every hot SELECT served from the
result cache is re-checked bit-identical against direct uncached execution
through ``cluster.sql`` — the cache may only ever change *when* a query
runs, never what it answers.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.algorithms.glm import GlmModel
from repro.deploy import deploy_model, grant_model
from repro.serving import PoolConfig, Server
from repro.vertica import HashSegmentation, VerticaCluster
from repro.vertica.models import Privilege

SESSIONS = 104
STATEMENTS_PER_SESSION = 8
ROWS = 4_000

OLAP_TEXTS = [
    "SELECT SUM(a) AS s, COUNT(*) AS n FROM pts",
    "SELECT AVG(b) AS m FROM pts",
    "SELECT MIN(a) AS lo, MAX(a) AS hi FROM pts",
    "SELECT COUNT(*) AS n FROM pts WHERE a > 0",
]
APPROX_TEXTS = [
    "SELECT COUNT(*) FROM pts WITHIN 10% ERROR",
    "SELECT COUNT(*) FROM pts WHERE a > 0 WITHIN 25% ERROR",
]
PREDICT_TEXT = ("SELECT glmPredict(a, b USING PARAMETERS model='m') "
                "OVER (PARTITION NODES) FROM pts")
# (session, step) of the same aggregate read twice.  With a write every
# fifth statement across 104 sessions, an interleaving in which every read
# follows a fresh INSERT (and so misses) is possible; INSERTs therefore wait
# until this pair has run, which makes its second read a result-cache hit
# under the concurrent load, whatever the interleaving.
HOT_PAIR = ((0, 0), (0, 1))


def _build_cluster() -> VerticaCluster:
    rng = np.random.default_rng(17)
    columns = {
        "k": rng.integers(0, 10_000, ROWS),
        "a": rng.normal(size=ROWS),
        "b": rng.normal(size=ROWS),
    }
    cluster = VerticaCluster(node_count=3)
    cluster.create_table_like("pts", columns, HashSegmentation("k"))
    cluster.bulk_load("pts", columns)
    deploy_model(cluster, GlmModel(
        coefficients=np.array([0.2, 1.0, -1.0]), family="gaussian",
        link="identity", intercept=True, iterations=1, deviance=0.0,
        null_deviance=0.0, converged=True, n_observations=ROWS), "m")
    for i in range(8):
        grant_model(cluster, "m", f"u{i}")
    cluster.sql("CREATE SAMPLE pts_sample ON pts UNIFORM RATE 10% SEED 7")
    for i in range(8):
        cluster.aqp.grant("pts_sample", f"u{i}", Privilege.USAGE,
                          granting_user="dbadmin")
    return cluster


def _statement_for(session_index: int, step: int) -> str:
    """The mixed workload: ~50% OLAP, ~10% approximate aggregates,
    ~20% predict, ~20% trickle insert.  Session 0 reads its first aggregate
    twice in a row (see :data:`HOT_PAIR`)."""
    if (session_index, step) == HOT_PAIR[1]:
        return _statement_for(*HOT_PAIR[0])
    slot = (session_index + step) % 10
    if slot < 5:
        return OLAP_TEXTS[(session_index * 7 + step) % len(OLAP_TEXTS)]
    if slot < 6:
        return APPROX_TEXTS[(session_index + step) % len(APPROX_TEXTS)]
    if slot < 8:
        return PREDICT_TEXT
    return (f"INSERT INTO pts VALUES "
            f"({(session_index * 31 + step) % 10_000}, "
            f"{0.001 * session_index:.3f}, {0.002 * step:.3f})")


def test_serving_mixed_load_qps_p99(record_property):
    cluster = _build_cluster()
    server = Server(
        cluster,
        pools=[PoolConfig("serve", max_concurrency=8, queue_depth=256,
                          admission_timeout_seconds=30.0)],
        result_cache_bytes=32 * 1024 * 1024,
    )
    latencies: list[float] = []
    lock = threading.Lock()
    writes_open = threading.Event()

    def client(session_index: int) -> int:
        served = 0
        with server.session(pool="serve", user=f"u{session_index % 8}") as s:
            mine = []
            for step in range(STATEMENTS_PER_SESSION):
                sql = _statement_for(session_index, step)
                if sql.startswith("INSERT"):
                    writes_open.wait()
                t0 = time.perf_counter()
                s.execute(sql)
                mine.append(time.perf_counter() - t0)
                served += 1
                if (session_index, step) == HOT_PAIR[1]:
                    writes_open.set()
            with lock:
                latencies.extend(mine)
        return served

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=SESSIONS) as pool:
        served = sum(pool.map(client, range(SESSIONS)))
    wall = time.perf_counter() - t0

    assert served == SESSIONS * STATEMENTS_PER_SESSION
    m = cluster.metrics
    hits = m.counter("result_cache_hits")
    assert m.counter("statements_served").value == served
    assert m.counter("statements_rejected").value == 0
    assert m.gauge("sessions_active").now == 0
    # The peak proves the sessions were genuinely concurrent.
    assert m.gauge("sessions_active").peak >= 100
    assert hits.value > 0

    # Bit-identity: every hot cached SELECT equals uncached re-execution.
    assert m.counter("aqp_rewrites").value > 0  # approximate class was served
    with server.session(pool="serve", user="u0") as s:
        for sql in OLAP_TEXTS + APPROX_TEXTS + [PREDICT_TEXT]:
            hits_before = hits.value
            s.execute(sql)                       # warm (or refresh) the key
            cached = s.execute(sql)
            assert hits.value >= hits_before + 1
            direct = cluster.sql(sql)
            assert cached.column_names == direct.column_names
            for name in direct.column_names:
                a, b = cached.column(name), direct.column(name)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    lat = np.sort(np.array(latencies))
    record_property("sessions", SESSIONS)
    record_property("statements", served)
    record_property("qps", round(served / wall, 1))
    record_property("p50_ms", round(float(np.percentile(lat, 50)) * 1e3, 3))
    record_property("p99_ms", round(float(np.percentile(lat, 99)) * 1e3, 3))
    for cache in ("plan_cache", "result_cache"):
        cache_hits = m.counter(f"{cache}_hits").value
        lookups = cache_hits + m.counter(f"{cache}_misses").value
        record_property(f"{cache}_hit_rate", round(cache_hits / max(1, lookups), 4))
    server.close()


def test_serving_cache_ablation_hot_read(record_property):
    """The cache's speedup on a pure hot-read workload: the same aggregate
    from many sessions, cached vs bypassed (cold server per statement)."""
    cluster = _build_cluster()
    sql = OLAP_TEXTS[0]
    n = 200

    with Server(cluster, pools=[PoolConfig("hot", max_concurrency=8)]) as server:
        with server.session(pool="hot") as s:
            s.execute(sql)                        # populate the key
            t0 = time.perf_counter()
            for _ in range(n):
                s.execute(sql)
            cached_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(n):
        cluster.sql(sql)
    direct_wall = time.perf_counter() - t0

    record_property("hot_read_statements", n)
    record_property("cached_qps", round(n / cached_wall, 1))
    record_property("direct_qps", round(n / direct_wall, 1))
    record_property("speedup", round(direct_wall / cached_wall, 2))
    # The cached path must not be slower; it skips parse+analyze+execute.
    assert cached_wall < direct_wall
