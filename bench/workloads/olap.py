"""`olap` — analyst SQL through `cluster.sql` (no serving caches), one client.

A fact table (`k`, sorted `ts`, `g` ∈ 100, `cust`, `status` ∈ 4 strings,
`qty`, `price`, `disc`) and a small `dim`; each pass runs the ten queries of
`bench/olap_queries.sql` and checks every answer against numpy.

Why: parse / analyze / plan / scan / filter / aggregate / merge / join do all
the work and no ML code runs.  GROUP BY dominates a pass, so the geomean
metric is what lets a scan or filter gain show.
"""

from __future__ import annotations

import numpy as np

from bench import ROOT
from bench.harness import Recorder
from bench.workloads import common
from bench.workloads.common import NODES, Scale

STATUSES = np.array(["open", "paid", "shipped", "void"], dtype=object)
GROUPS = 100
REGIONS = 8


def load_corpus(parameters: dict[str, int]) -> dict[str, str]:
    """`-- name: q` blocks of the checked-in corpus, placeholders filled."""
    queries: dict[str, str] = {}
    name = None
    for line in (ROOT / "bench" / "olap_queries.sql").read_text().splitlines():
        if line.startswith("-- name:"):
            name = line.split(":", 1)[1].strip()
            queries[name] = ""
        elif name is not None and not line.startswith("--"):
            queries[name] += line + " "
    return {name: " ".join(text.split()).rstrip("; ").format(**parameters)
            for name, text in queries.items()}


def group_by(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and each row's group index."""
    return np.unique(keys, return_inverse=True)


class Olap(common.Workload):
    name = "olap"
    table = "fact"

    def __init__(self, seed: int, scale: Scale) -> None:
        rng = np.random.default_rng([seed, 3])
        n = self.rows = scale.olap_rows
        self.scale = scale
        customers = scale.olap_customers
        ts = np.sort(rng.integers(0, 10 * n, n))
        self.columns = f = {
            "k": np.arange(n), "ts": ts,
            "g": rng.integers(0, GROUPS, n),
            "cust": rng.integers(0, customers, n),
            "status": STATUSES[rng.integers(0, len(STATUSES), n)],
            "qty": rng.integers(1, 50, n),
            "price": rng.uniform(1.0, 100.0, n),
            "disc": rng.uniform(0.0, 0.3, n),
        }
        self.dim = {
            "k": np.arange(customers),   # segmentation key
            "cust": np.arange(customers),
            "region": np.array([f"r{c % REGIONS}" for c in range(customers)],
                               dtype=object),
        }
        parameters = {
            "band1_lo": int(ts[int(0.50 * n)]), "band1_hi": int(ts[int(0.51 * n)]),
            "band10_lo": int(ts[int(0.30 * n)]), "band10_hi": int(ts[int(0.40 * n)]),
            "point_key": int(rng.integers(0, n)),
        }
        self.queries = load_corpus(parameters)
        self.geomean_steps = tuple(self.queries)
        self.sql_texts = list(self.queries.values())
        self.references = self.compute_references(f, parameters)
        self.user_bytes = common.raw_bytes(f)

    def compute_references(self, f: dict, p: dict) -> dict[str, dict[str, np.ndarray]]:
        price, disc, qty, ts, cust = f["price"], f["disc"], f["qty"], f["ts"], f["cust"]
        ref: dict[str, dict] = {}
        ref["q_scan_agg"] = {"n": [len(price)], "q": [qty.sum()], "p": [price.mean()],
                             "lo": [disc.min()], "hi": [disc.max()]}
        m = (qty > 25) & (disc < 0.1)
        ref["q_filter_agg"] = {"n": [m.sum()], "rev": [(price[m] * (1 - disc[m])).sum()]}
        m = (ts >= p["band1_lo"]) & (ts <= p["band1_hi"])
        ref["q_prune"] = {"n": [m.sum()], "s": [price[m].sum()]}
        keys, idx = group_by(f["status"].astype(str))
        ref["q_group_low"] = {"status": keys, "n": np.bincount(idx),
                              "s": np.bincount(idx, weights=price)}
        keys, idx = group_by(f["g"])
        ref["q_group_mid"] = {"g": keys, "n": np.bincount(idx),
                              "p": np.bincount(idx, weights=price) / np.bincount(idx)}
        m = (ts >= p["band10_lo"]) & (ts <= p["band10_hi"])
        keys, idx = group_by(cust[m])
        ref["q_group_high"] = {"cust": keys, "n": np.bincount(idx),
                               "q": np.bincount(idx, weights=qty[m])}
        m = np.flatnonzero(qty > 40)
        top = m[np.lexsort((f["k"][m], -price[m]))[:10]]
        ref["q_topk"] = {"k": f["k"][top], "price": price[top]}
        region = self.dim["region"].astype(str)[cust]   # every cust is in dim
        keys, idx = group_by(region)
        ref["q_join"] = {"region": keys, "n": np.bincount(idx),
                         "s": np.bincount(idx, weights=price)}
        ref["q_distinct"] = {"n": [len(np.unique(cust[qty < 10]))]}
        row = p["point_key"]
        ref["q_point"] = {"k": [row], "ts": [ts[row]], "qty": [qty[row]],
                          "price": [price[row]]}
        return ref

    def setup(self, rec: Recorder) -> None:
        from repro import VerticaCluster

        self.cluster = VerticaCluster(NODES)
        common.load_table(self.cluster, rec, self.table, self.columns,
                          self.scale.load_chunks)
        common.load_table(self.cluster, rec, "dim", self.dim, 1, step="setup.load_dim")
        for sql in self.queries.values():   # warm-up
            self.cluster.sql(sql)

    def run_pass(self, rec: Recorder, index: int) -> None:
        for name, sql in self.queries.items():
            result = rec.call(name, "executor", self.cluster.sql, sql, read=True,
                              tag="band" if name == "q_prune" else None)
            rec.check(self.matches(result, self.references[name]),
                      f"{name} differs from its numpy reference")

    @staticmethod
    def matches(result, reference: dict) -> bool:
        for column, want in reference.items():
            got = np.asarray(result.column(column))
            want = np.asarray(want)
            if got.shape != want.shape:
                return False
            if want.dtype.kind in "OUS":
                same = (got.astype(str) == want.astype(str)).all()
            elif want.dtype.kind == "f":
                same = np.allclose(got.astype(float), want, rtol=1e-9, atol=1e-9)
            else:
                same = (got.astype(np.int64) == want.astype(np.int64)).all()
            if not same:
                return False
        return True

    def layer_metrics(self, rec: Recorder) -> dict[str, float]:
        metrics = {f"executor.{name}_per_s": rec.per_second(name)
                   for name in self.queries if name != "q_join"}
        metrics["joins.q_join_per_s"] = rec.per_second("q_join")
        return metrics
