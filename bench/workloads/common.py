"""Scales and helpers the five workloads share."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bench.harness import Recorder, rate

NODES = 4
FEATURES = [f"c{i}" for i in range(8)]
FEATURE_ARGS = ", ".join(FEATURES)


@dataclass(frozen=True)
class Scale:
    """Input sizes.  `full` is what every recorded number uses; `smoke`
    (tables ÷ 50) only proves the benchmark itself still runs."""

    pipeline_rows: int
    scoring_rows: int
    olap_rows: int
    olap_customers: int
    serving_rows: int
    serving_round: int      # statements per client per round
    trickle_rows: int
    trickle_inserts: int    # single-row INSERTs per cycle
    model_sample: int       # rows the deployed models are fitted on
    probe_rows: int         # rows of the workload's table the layer probes use
    load_chunks: int        # bulk_load calls per table (one row group each)
    setup_repeats: int
    min_passes: int


SCALES = {
    "full": Scale(pipeline_rows=100_000, scoring_rows=400_000,
                  olap_rows=200_000, olap_customers=1_000,
                  serving_rows=200_000, serving_round=100,
                  trickle_rows=200_000, trickle_inserts=200,
                  model_sample=5_000, probe_rows=65_536, load_chunks=8,
                  setup_repeats=3, min_passes=3),
    "smoke": Scale(pipeline_rows=2_000, scoring_rows=8_000,
                   olap_rows=4_000, olap_customers=100,
                   serving_rows=4_000, serving_round=40,
                   trickle_rows=6_000, trickle_inserts=10,
                   model_sample=1_000, probe_rows=2_048, load_chunks=2,
                   setup_repeats=1, min_passes=2),
}


class Workload:
    """What the runner calls on a workload.  A subclass generates its inputs
    and numpy references from the seed in `__init__`, and defines `setup`,
    `run_pass` and `layer_metrics`; `geomean_steps` names the steps of
    `step_geomean_ms` and `tail` how `read_tail_ms` is taken."""

    name: str
    table: str
    tail = "slowest"
    cluster = None
    user_bytes = 0
    mover_passes = None

    def load_rows_per_s(self, rec: Recorder) -> float:
        """`bulk_load` throughput of set-up: rows of one chunk ÷ the median
        call, over every chunk of every set-up repeat."""
        return rate(self.rows / self.scale.load_chunks, rec.median_s("setup.load"))

    def teardown(self) -> None:
        self.cluster = None

    def finish(self, rec: Recorder, traced: bool) -> None:
        """End-of-run checks and, when traced, extra measurements."""

    def space_amp(self) -> float:
        return stored_bytes(self.cluster, self.table) / self.user_bytes


def load_table(cluster, rec: Recorder, name: str, columns: dict[str, np.ndarray],
               chunks: int, step: str = "setup.load") -> None:
    """Create `name` hash-segmented on `k` and bulk-load it in `chunks`
    calls, in row order, so a sorted column gives each segment several
    row groups with disjoint zone maps."""
    from repro.vertica import HashSegmentation

    cluster.create_table_like(name, columns, HashSegmentation("k"))
    rows = len(columns["k"])
    bounds = np.linspace(0, rows, chunks + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rec.call(step, "storage", cluster.bulk_load, name,
                 {col: values[lo:hi] for col, values in columns.items()})


def stored_bytes(cluster, table: str) -> int:
    return int(cluster.table_stats(table)["compressed_bytes"])


def raw_bytes(columns: dict[str, np.ndarray]) -> int:
    """User bytes: 8 per numeric value, the UTF-8 length per string."""
    total = 0
    for values in columns.values():
        if values.dtype.kind in "OUS":
            total += sum(len(str(v).encode()) for v in values)
        else:
            total += values.nbytes
    return total


def feature_matrix(columns: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    return np.stack([columns[name] for name in names], axis=1)


def same_multiset(got: np.ndarray, want: np.ndarray, rtol: float = 1e-9) -> bool:
    """Prediction UDTFs return rows in instance order, not table order, so
    outputs are compared as sorted multisets."""
    if len(got) != len(want):
        return False
    return bool(np.allclose(np.sort(got), np.sort(want), rtol=rtol, atol=1e-12))


def fit_models(columns: dict[str, np.ndarray], response: np.ndarray,
               features: list[str], sample: int, forest: bool):
    """Fit the models a workload deploys on the first `sample` rows, through
    a DR session, the way a user would (`darray` → `hpd*`)."""
    from repro import hpdglm, hpdkmeans, hpdrandomforest, start_session

    x = feature_matrix(columns, features)[:sample]
    y = response[:sample].reshape(-1, 1)
    with start_session(node_count=2, instances_per_node=1) as session:
        xs = session.darray(npartitions=2).fill_from(x)
        ys = session.darray(npartitions=2).fill_from(y)
        models = {
            "kmeans": hpdkmeans(xs, 8, initial_centers=x[:8].copy(),
                                max_iterations=5, tolerance=0.0),
            "glm": hpdglm(ys, xs, family="gaussian"),
        }
        if forest:
            models["rf"] = hpdrandomforest(ys, xs, n_trees=8, max_depth=8, seed=1)
    return models


def glm_reference(model, x: np.ndarray) -> np.ndarray:
    """numpy reference for `glmPredict` (gaussian, identity link)."""
    coefficients = np.asarray(model.coefficients)
    return coefficients[0] + x @ coefficients[1:]


def nearest_center(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, int]:
    """Label of the nearest center per row, plus how many rows sit so close
    to a boundary that another summation order may label them differently."""
    labels = np.empty(len(x), dtype=np.int64)
    near_ties = 0
    for lo in range(0, len(x), 50_000):   # bounds the (rows, k, d) temporary
        d = ((x[lo:lo + 50_000, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels[lo:lo + 50_000] = d.argmin(axis=1)
        two = np.partition(d, 1, axis=1)[:, :2]
        near_ties += int((two[:, 1] - two[:, 0] <= 1e-9 * two[:, 1]).sum())
    return labels, near_ties


def kmeans_reference(centers: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
    """numpy reference for `kmeansPredict`: per-cluster row counts and the
    near-tie allowance."""
    labels, near_ties = nearest_center(x, centers)
    return np.bincount(labels, minlength=len(centers)), near_ties


def kmeans_counts_match(got_labels: np.ndarray, want_counts: np.ndarray,
                        near_ties: int) -> bool:
    got = np.bincount(np.asarray(got_labels, dtype=np.int64),
                      minlength=len(want_counts))
    return (len(got) == len(want_counts)
            and int(np.abs(got - want_counts).sum()) <= 2 * near_ties)

