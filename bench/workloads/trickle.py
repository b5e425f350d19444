"""`trickle` — writes beside reads on the same `storage`/`txn` layers, one
client, with the Tuple Mover driven by the benchmark.

A pass is four cycles and one mergeout.  Each cycle: `trickle_inserts`
single-row `INSERT`s, two 100-row `INSERT`s, a filtered-aggregate read (WOS
live), one `DELETE` and one `UPDATE` of a 0.2 % key range, the same read
again (delete vectors live), the read `AT EPOCH` of the state before the
delete, then `run_moveout()`.  After the fourth cycle `advance_ahm()`,
`run_mergeout()` and one read of the compacted table.

The mover's thresholds are set so its background thread never moves out, and
mergeout only has work once the benchmark advances the AHM; the benchmark
asserts through `moveout_passes`/`mergeout_passes` that every moveout was its
own call and that each AHM advance caused exactly one mergeout.  A numpy model of the rows visible at each epoch checks every
read, including the `AT EPOCH` one and equality across mergeout.

Why: a scan-side optimisation that taxes encoding, the WOS union, delete
vectors or mergeout shows here as slower writes or higher amplification
while `olap` improves.
"""

from __future__ import annotations

import numpy as np

from bench.harness import Recorder, counter_delta, counter_snapshot, rate, warn
from bench.workloads import common
from bench.workloads.common import NODES, Scale

CYCLES = 4
BATCH = 100          # rows per multi-row INSERT
ROW_BYTES = 5 * 8    # k, ts, g, v, w
READ = "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE w < 0.5"


def values_sql(k, ts, g, v, w) -> str:
    return ", ".join(f"({a}, {b}, {c}, {d!r}, {e!r})"
                     for a, b, c, d, e in zip(k.tolist(), ts.tolist(), g.tolist(),
                                              v.tolist(), w.tolist()))


class Trickle(common.Workload):
    name = "trickle"
    table = "t"
    geomean_steps = ("insert", "multi_insert", "read_wos", "delete", "update",
                     "read_deletes", "read_at_epoch", "moveout", "mergeout",
                     "read_clean")

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        rng = np.random.default_rng([seed, 5])
        n = self.rows = scale.trickle_rows
        self.columns = {"k": np.arange(n), "ts": np.sort(rng.integers(0, 10 * n, n)),
                        "g": rng.integers(0, 100, n), "v": rng.normal(size=n),
                        "w": rng.uniform(size=n)}
        self.sql_texts = [READ, f"AT EPOCH 1 {READ}",
                          "INSERT INTO t VALUES (1, 2, 3, 0.5, 0.25)",
                          "DELETE FROM t WHERE k BETWEEN 10 AND 20",
                          "UPDATE t SET v = v + 1 WHERE k BETWEEN 10 AND 20"]
        self.span = max(n // 500, 1)   # keys per DELETE and per UPDATE: 0.2 %

    # -- the model: rows visible at the latest epoch ------------------------

    def reset_model(self) -> None:
        self.k = self.columns["k"].copy()
        self.v = self.columns["v"].copy()
        self.w = self.columns["w"].copy()
        self.next_key = self.rows
        self.cycle = 0
        self.user_bytes_written = 0
        self.mergeout_bytes = 0
        self.moveout_rows = 0
        self.my_moveouts = 0
        self.ahm_advances = 0

    def expected(self) -> tuple[int, float]:
        mask = self.w < 0.5
        return int(mask.sum()), float(self.v[mask].sum())

    def check_read(self, rec: Recorder, result, want: tuple[int, float], what: str) -> None:
        (n, s), = result.rows()
        rec.check(int(n) == want[0] and np.isclose(float(s), want[1], rtol=1e-9, atol=1e-9),
                  f"{what}: got ({n}, {s}), expected {want}")

    # -- lifecycle ----------------------------------------------------------

    def setup(self, rec: Recorder) -> None:
        from repro import VerticaCluster
        from repro.vertica import TupleMoverConfig

        # The background thread still wakes on every mutation, but with these
        # thresholds nothing is ever due, and mergeout only has work once the
        # benchmark advances the AHM.
        self.cluster = VerticaCluster(NODES, mover=TupleMoverConfig(
            moveout_rows=10**9, moveout_age_seconds=1e9))
        common.load_table(self.cluster, rec, self.table, self.columns,
                          self.scale.load_chunks)
        self.cluster.sql(READ)   # warm-up
        self.reset_model()

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.tuple_mover.stop()
        self.cluster = None

    # -- one pass: four cycles and a mergeout -------------------------------

    def run_pass(self, rec: Recorder, index: int) -> None:
        sql = self.cluster.sql
        for _ in range(CYCLES):
            self.run_cycle(rec)
        before = sql(READ)

        def purge():
            # `advance_ahm` also wakes the background thread; passes are
            # serialized, so when this returns the purge is done whichever
            # thread ran it.  What it did is read from the counters.
            self.cluster.advance_ahm()
            self.cluster.tuple_mover.run_mergeout()

        counters = counter_snapshot()
        rec.call("mergeout", "mover", purge)
        done = counter_delta(counters)
        rewritten = done.get("mergeout_bytes_rewritten", 0.0)
        purged = -done.get("delete_vector_rows_now", 0.0)
        self.mergeout_bytes += rewritten
        self.ahm_advances += rewritten > 0
        rec.check(purged == CYCLES * 2 * self.span,
                  f"mergeout purged {purged} rows, expected {CYCLES * 2 * self.span}")
        after = rec.call("read_clean", "executor", sql, READ, read=True)
        self.check_read(rec, after, self.expected(), "read after mergeout")
        # The merged row groups sum in another order: equal up to rounding.
        (n, s), = before.rows()
        self.check_read(rec, after, (int(n), float(s)), "read across mergeout")

    def run_cycle(self, rec: Recorder) -> None:
        sql = self.cluster.sql
        rng = np.random.default_rng([self.seed, 5, self.cycle + 1])
        fresh = self.scale.trickle_inserts + 2 * BATCH
        k = np.arange(self.next_key, self.next_key + fresh)
        ts = rng.integers(0, 10 * self.rows, fresh)
        g = rng.integers(0, 100, fresh)
        v, w = rng.normal(size=fresh), rng.uniform(size=fresh)
        singles = self.scale.trickle_inserts
        for i in range(singles):
            rec.call("insert", "txn", sql, "INSERT INTO t VALUES "
                     + values_sql(k[i:i + 1], ts[i:i + 1], g[i:i + 1], v[i:i + 1], w[i:i + 1]))
        for lo in (singles, singles + BATCH):
            hi = lo + BATCH
            rec.call("multi_insert", "txn", sql, "INSERT INTO t VALUES "
                     + values_sql(k[lo:hi], ts[lo:hi], g[lo:hi], v[lo:hi], w[lo:hi]))
        self.k = np.concatenate([self.k, k])
        self.v = np.concatenate([self.v, v])
        self.w = np.concatenate([self.w, w])
        self.next_key += fresh
        self.user_bytes_written += fresh * ROW_BYTES

        with_wos = self.expected()
        self.check_read(rec, rec.call("read_wos", "executor", sql, READ, read=True),
                        with_wos, "read with WOS rows")
        epoch = self.cluster.current_epoch

        lo = 2 * self.span * self.cycle
        mid, hi = lo + self.span, lo + 2 * self.span
        (deleted,), = rec.call("delete", "txn", sql,
                               f"DELETE FROM t WHERE k BETWEEN {lo} AND {mid - 1}").rows()
        (updated,), = rec.call("update", "txn", sql,
                               f"UPDATE t SET v = v + 1 WHERE k BETWEEN {mid} AND {hi - 1}"
                               ).rows()
        rec.check(deleted == self.span and updated == self.span,
                  f"DELETE/UPDATE touched {deleted}/{updated} rows, expected {self.span}")
        keep = (self.k < lo) | (self.k >= mid)
        self.k, self.v, self.w = self.k[keep], self.v[keep], self.w[keep]
        self.v[(self.k >= mid) & (self.k < hi)] += 1.0
        self.user_bytes_written += self.span * ROW_BYTES

        self.check_read(rec, rec.call("read_deletes", "executor", sql, READ, read=True),
                        self.expected(), "read with delete vectors")
        self.check_read(rec, rec.call("read_at_epoch", "executor", sql,
                                      f"AT EPOCH {epoch} {READ}", read=True),
                        with_wos, "AT EPOCH read of the pre-delete state")

        moved = rec.call("moveout", "mover", self.cluster.tuple_mover.run_moveout)
        self.moveout_rows += moved
        self.my_moveouts += moved > 0
        # UPDATE reinserts its rows through the WOS.
        rec.check(moved == fresh + self.span,
                  f"moveout flushed {moved} rows, expected {fresh + self.span}")
        self.cycle += 1

    def finish(self, rec: Recorder, traced: bool) -> None:
        mover = self.cluster.tuple_mover
        passes = (getattr(mover, "moveout_passes", None),
                  getattr(mover, "mergeout_passes", None))
        mine = (self.my_moveouts, self.ahm_advances)
        self.mover_passes = {"benchmark": list(mine), "program": list(passes)}
        if None in passes:
            warn("tuple_mover pass counters are gone; mover passes not cross-checked")
        else:
            rec.check(passes == mine,
                      f"mover ran {passes} moveout/mergeout passes, the benchmark "
                      f"drove {mine}")

    def space_amp(self) -> float:
        return common.stored_bytes(self.cluster, self.table) / (len(self.k) * ROW_BYTES)

    def write_amp(self) -> float:
        return rate(self.mergeout_bytes, self.user_bytes_written)

    def layer_metrics(self, rec: Recorder) -> dict[str, float]:
        passes = len(rec.pass_seconds)
        moved_per_cycle = self.moveout_rows / (passes * CYCLES)
        return {
            "txn.inserts_per_s": rec.per_second("insert"),
            "txn.multi_insert_rows_per_s": rec.per_second("multi_insert", BATCH),
            "txn.deletes_per_s": rec.per_second("delete"),
            "txn.updates_per_s": rec.per_second("update"),
            "txn.moveout_rows_per_s": rec.per_second("moveout", moved_per_cycle),
            "txn.mergeout_mb_per_s": rec.per_second(
                "mergeout", self.mergeout_bytes / passes / 1e6),
            "txn.moveout_rows": moved_per_cycle * CYCLES,
            "txn.write_amp": self.write_amp(),
            "txn.read_clean_per_s": rec.per_second("read_clean"),
            "txn.read_with_wos_per_s": rec.per_second("read_wos"),
            "txn.read_with_deletes_per_s": rec.per_second("read_deletes"),
            "txn.at_epoch_reads_per_s": rec.per_second("read_at_epoch"),
        }
