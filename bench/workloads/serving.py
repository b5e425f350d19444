"""`serving` — `repro.serving.Server` under two closed-loop client threads
(= `nproc`): each sends its next statement only after the previous reply.

Mix per client: 70 % hot aggregates drawn Zipf-like from 8 texts, 18 %
`glmPredict` over a 5 % band, 10 % `WITHIN n% ERROR` aggregates whose literal
varies (48 texts, so nearly every one runs against the sample), 2 %
single-row `INSERT` (each one invalidates the epoch-keyed result cache).  A
round is `serving_round` statements per client, always in that composition,
the INSERTs evenly spaced and the reads shuffled; rounds repeat until time
is up.

Why: plan cache, result cache, admission and the AQP rewrite decide latency
here and nowhere else.  About four reads in five are cache hits, which
bypass the executor, so the median read shows the caches and the tail shows
the miss path: an executor gain should move the tail only.  The mix keeps
the median well inside the hit mode; at a hit ratio near one half it would
flip between the two modes from run to run.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from bench.harness import Recorder, rate
from bench.workloads import common
from bench.workloads.common import NODES, Scale

CLIENTS = 2
FEATURES = ["a", "b", "c"]
HOT = [
    "SELECT COUNT(*) AS n, SUM(a) AS s FROM pts",
    "SELECT AVG(b) AS m FROM pts",
    "SELECT MIN(a) AS lo, MAX(a) AS hi FROM pts",
    "SELECT COUNT(*) AS n FROM pts WHERE a > 0",
    "SELECT SUM(a * b) AS s FROM pts WHERE c < 0.5",
    "SELECT g, COUNT(*) AS n FROM pts GROUP BY g ORDER BY g",
    "SELECT COUNT(*) AS n, AVG(c) AS m FROM pts WHERE b < -1",
    "SELECT MAX(ts) AS t FROM pts",
]
APPROX_TEMPLATES = [
    "SELECT COUNT(*) FROM pts WHERE a > {x} WITHIN 10% ERROR",
    "SELECT SUM(c) FROM pts WHERE a < {x} WITHIN 10% ERROR",
    "SELECT AVG(c) FROM pts WHERE b > {x} WITHIN 10% ERROR",
]
APPROX_LITERALS = [round(-0.75 + 0.1 * i, 2) for i in range(16)]
APPROX = [template.format(x=x) for template in APPROX_TEMPLATES for x in APPROX_LITERALS]
SHARES = (("hot", 0.70), ("predict", 0.18), ("approx", 0.10), ("insert", 0.02))


class Serving(common.Workload):
    name = "serving"
    table = "pts"
    tail = "p95"
    # INSERT latency is measured on `trickle`; here there are too few a run.
    geomean_steps = ("hot", "approx", "predict")

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        rng = np.random.default_rng([seed, 4])
        n = self.rows = scale.serving_rows
        ts = np.sort(rng.integers(0, 10 * n, n))
        self.columns = {"k": np.arange(n), "ts": ts, "g": rng.integers(0, 20, n),
                        "a": rng.normal(size=n), "b": rng.normal(size=n),
                        "c": rng.uniform(size=n)}
        x = common.feature_matrix(self.columns, FEATURES)
        self.response = 1.0 + x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=n)
        lo, hi = int(ts[int(0.50 * n)]), int(ts[int(0.55 * n)])
        self.predict = ("SELECT glmPredict(a, b, c USING PARAMETERS model='m') "
                        f"OVER (PARTITION NODES) FROM pts WHERE ts BETWEEN {lo} AND {hi}")
        self.sql_texts = HOT + APPROX[::8] + [self.predict,
                                         "INSERT INTO pts VALUES (1, 2, 3, 0.5, 0.5, 0.5)"]
        self.user_bytes = common.raw_bytes(self.columns)
        self.server = None
        self.inserted = 0
        self.rejected = 0

    def round_statements(self, client: int, index: int) -> list[tuple[str, str]]:
        """One client's statements for one round, a function of the seed."""
        rng = np.random.default_rng([self.seed, 4, client, index + 1])
        weights = 1.0 / np.arange(1, len(HOT) + 1)
        weights /= weights.sum()
        # Every round has the same composition and its INSERTs in the same
        # places (evenly spaced, staggered between the clients), so that
        # rounds are comparable with each other; the reads are shuffled.
        size = self.scale.serving_round
        counts = [round(share * size) for _, share in SHARES]
        insert = len(SHARES) - 1
        kinds = list(rng.permutation(np.repeat(np.arange(insert), counts[:insert])))
        gap = size // counts[insert]
        for j in range(counts[insert]):
            kinds.insert(j * gap + (2 * client + 1) * gap // (2 * CLIENTS), insert)
        statements = []
        for slot, kind in enumerate(kinds):
            name = SHARES[kind][0]
            if name == "hot":
                sql = HOT[rng.choice(len(HOT), p=weights)]
            elif name == "approx":
                sql = APPROX[rng.integers(len(APPROX))]
            elif name == "predict":
                sql = self.predict
            else:
                key = self.rows + ((index + 1) * CLIENTS + client) * 100_000 + slot
                a, b, c = rng.normal(), rng.normal(), rng.uniform()
                sql = (f"INSERT INTO pts VALUES ({key}, {10 * self.rows + key}, "
                       f"{key % 20}, {a!r}, {b!r}, {c!r})")
            statements.append((name, sql))
        return statements

    def setup(self, rec: Recorder) -> None:
        from repro import VerticaCluster, deploy_model
        from repro.serving import PoolConfig, Server
        from repro.vertica import TupleMoverConfig

        # Inserts stay in the WOS for the whole run, so every run reads the
        # same storage layout; `trickle` is where the Tuple Mover is measured.
        self.cluster = VerticaCluster(NODES, mover=TupleMoverConfig(
            moveout_rows=10**9, moveout_age_seconds=1e9))
        common.load_table(self.cluster, rec, self.table, self.columns,
                          self.scale.load_chunks)
        model = common.fit_models(self.columns, self.response, FEATURES,
                                  self.scale.model_sample, forest=False)["glm"]
        deploy_model(self.cluster, model, "m")
        self.cluster.sql("CREATE SAMPLE pts_sample ON pts UNIFORM RATE 5% SEED 7")
        self.server = Server(self.cluster, pools=[PoolConfig(
            "serve", max_concurrency=CLIENTS, queue_depth=64,
            admission_timeout_seconds=30.0)])
        self.inserted = 0

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.cluster.tuple_mover.stop()
        self.server = self.cluster = None

    def run_pass(self, rec: Recorder, index: int) -> float:
        from repro.serving import AdmissionError

        statements = [self.round_statements(number, index) for number in range(CLIENTS)]
        results: list[list[tuple[str, float, float]]] = [[] for _ in range(CLIENTS)]
        rejected = [0] * CLIENTS
        crashed: list[BaseException] = []

        def client(number: int) -> None:
            mine = results[number]
            try:
                with self.server.session(pool="serve") as session:
                    for kind, sql in statements[number]:
                        start = time.perf_counter()
                        try:
                            session.execute(sql)
                        except AdmissionError:
                            rejected[number] += 1
                        mine.append((kind, start, time.perf_counter()))
            except Exception as error:   # re-raised in the main thread below
                crashed.append(error)

        threads = [threading.Thread(target=client, args=(number,))
                   for number in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if crashed:
            raise crashed[0]

        for number, mine in enumerate(results):
            parent = None
            if rec.tracing:
                parent = rec.add_span(f"client{number}", "harness", mine[0][1],
                                      mine[-1][2], rec.pass_span)
            for kind, began, ended in mine:
                rec.record(kind, ended - began, read=kind != "insert")
                if rec.tracing:
                    rec.add_span(kind, "txn" if kind == "insert" else "serving",
                                 began, ended, parent)
        self.inserted += sum(kind == "insert" for mine in results for kind, _, _ in mine)
        for _ in range(sum(rejected)):
            rec.fail("statement rejected by admission control")
        self.rejected += sum(rejected)
        return wall

    def finish(self, rec: Recorder, traced: bool) -> None:
        """Cached answers must be bit-identical to direct execution, and no
        acknowledged INSERT may be lost."""
        with self.server.session(pool="serve") as session:
            for sql in HOT + APPROX[::8] + [self.predict]:
                session.execute(sql)            # fills (or refreshes) the entry
                cached = session.execute(sql)   # served from the result cache
                direct = self.cluster.sql(sql)
                same = cached.column_names == direct.column_names and all(
                    np.array_equal(cached.column(c), direct.column(c))
                    and cached.column(c).dtype == direct.column(c).dtype
                    for c in direct.column_names)
                rec.check(same, f"cached result differs from direct execution: {sql}")
            count = session.execute("SELECT COUNT(*) AS n FROM pts").column("n")[0]
            if self.rejected == 0:   # a rejected INSERT is not retried
                rec.check(int(count) == self.rows + self.inserted,
                          f"COUNT(*) is {count}, expected {self.rows + self.inserted}")
            if traced:
                self.probe_classes(rec, session)

    def probe_classes(self, rec: Recorder, session) -> None:
        """Hit and miss latency apart, and the approximate answers against
        the exact ones: one client, after the measured rounds."""
        key = self.rows + 90_000_000
        for repeat in range(5):
            session.execute(f"INSERT INTO pts VALUES ({key + repeat}, 0, 0, 0.0, 0.0, 0.5)")
            for sql in HOT:
                rec.call("probe.miss", "serving", session.execute, sql)
                rec.call("probe.hit", "serving", session.execute, sql)
        self.inserted += 5
        errors = []
        for sql in APPROX[4::16]:   # one literal of each template
            exact_sql = sql[:sql.index(" WITHIN")]
            for _ in range(5):
                estimate = rec.call("probe.approx", "serving", self.cluster.sql, sql)
                exact = rec.call("probe.exact", "serving", self.cluster.sql, exact_sql)
            truth = float(exact.rows()[0][0])
            errors.append(abs(float(estimate.column("estimate")[0]) - truth) / abs(truth))
        self.realized_error = max(errors)

    def layer_metrics(self, rec: Recorder) -> dict[str, float]:
        counts = rec.pass_counts or {}
        busy = sum(span["end"] - span["start"] for span in rec.spans
                   if span["layer"] in ("serving", "txn")
                   and span["pass"] == rec.spans[0]["pass"])
        return {
            "serving.hit_reads_per_s": rec.per_second("probe.hit"),
            "serving.miss_reads_per_s": rec.per_second("probe.miss"),
            "serving.predicts_per_s": rec.per_second("predict"),
            "serving.approx_per_s": rec.per_second("approx"),
            "serving.admission_wait_share": rate(
                counts.get("admission_queue_seconds_sum", 0.0), busy),
            "aqp.speedup": rate(rec.median_s("probe.exact"), rec.median_s("probe.approx")),
            "aqp.realized_error": self.realized_error,
            "txn.inserts_per_s": rec.per_second("insert"),
        }
