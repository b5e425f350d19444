"""`pipeline` — the paper's Fig 3/21 workflow, one client.

Each pass builds a fresh 4-node database, bulk-loads the table, starts a
Distributed R session, moves the features over VFT, fits K-means and a
gaussian GLM, deploys both and scores the table in-database.

Why: the only workload where `storage` encode, `transfer`, `dr` and
`algorithms` do most of the work; prediction is a small share of a pass.
"""

from __future__ import annotations

import numpy as np

from bench.harness import Recorder
from bench.workloads import common
from bench.workloads.common import FEATURE_ARGS, FEATURES, NODES, Scale

KMEANS_ITERATIONS = 5
K = 8

PREDICT_KMEANS = (f"SELECT kmeansPredict({FEATURE_ARGS} USING PARAMETERS model='km') "
                  "OVER (PARTITION BEST) FROM t")
PREDICT_GLM = (f"SELECT glmPredict({FEATURE_ARGS} USING PARAMETERS model='glm') "
               "OVER (PARTITION BEST) FROM t")


def lloyd(x: np.ndarray, centers: np.ndarray, iterations: int) -> np.ndarray:
    """Plain Lloyd's algorithm: the reference for `hpdkmeans`."""
    centers = centers.copy()
    for _ in range(iterations):
        labels, _ = common.nearest_center(x, centers)
        for j in range(len(centers)):
            members = x[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return centers


class Pipeline(common.Workload):
    name = "pipeline"
    table = "t"
    geomean_steps = ("load", "transfer", "kmeans", "transfer_y", "glm",
                     "predict_kmeans", "predict_glm")

    def __init__(self, seed: int, scale: Scale) -> None:
        rng = np.random.default_rng([seed, 1])
        n = self.rows = scale.pipeline_rows
        true_centers = rng.normal(scale=4.0, size=(K, len(FEATURES)))
        x = true_centers[rng.integers(0, K, n)] + rng.normal(size=(n, len(FEATURES)))
        beta = rng.normal(size=len(FEATURES) + 1)
        y = beta[0] + x @ beta[1:] + 0.1 * rng.normal(size=n)
        self.columns = {"k": np.arange(n), "y": y}
        for j, name in enumerate(FEATURES):
            self.columns[name] = np.ascontiguousarray(x[:, j])
        self.initial_centers = x[rng.choice(n, K, replace=False)].copy()
        self.sql_texts = [PREDICT_KMEANS, PREDICT_GLM]

        self.ref_centers = lloyd(x, self.initial_centers, KMEANS_ITERATIONS)
        design = np.column_stack([np.ones(n), x])
        self.ref_coefficients = np.linalg.lstsq(design, y, rcond=None)[0]
        self.ref_counts, self.near_ties = common.kmeans_reference(self.ref_centers, x)
        self.ref_glm = design @ self.ref_coefficients
        self.user_bytes = common.raw_bytes(self.columns)
        self.session = None
        self.glm_iterations = 0

    def setup(self, rec: Recorder) -> None:
        """Nothing outlives a pass, so set-up is one untimed warm-up pass:
        lazy imports, UDTF installation and allocator warm-up happen here."""
        self.run_pass(Recorder(self.name), -1)

    def teardown(self) -> None:
        self.cluster = self.session = None

    def run_pass(self, rec: Recorder, index: int) -> None:
        from repro import (VerticaCluster, db2darray, db2darray_with_response,
                           deploy_model, hpdglm, hpdkmeans, start_session)
        from repro.vertica import HashSegmentation

        def load():
            cluster = VerticaCluster(NODES)
            cluster.create_table_like(self.table, self.columns, HashSegmentation("k"))
            cluster.bulk_load(self.table, self.columns)
            return cluster

        cluster = self.cluster = rec.call("load", "storage", load)
        # Kept on self so the session's registry outlives the pass's counter delta.
        session = self.session = rec.call("session_start", "dr", start_session,
                                          node_count=NODES, instances_per_node=1)
        try:
            x = rec.call("transfer", "transfer", db2darray, cluster, self.table,
                         FEATURES, session)
            kmeans = rec.call("kmeans", "algorithms", hpdkmeans, x, K,
                              initial_centers=self.initial_centers,
                              max_iterations=KMEANS_ITERATIONS, tolerance=0.0)
            y, x2 = rec.call("transfer_y", "transfer", db2darray_with_response,
                             cluster, self.table, "y", FEATURES, session)
            glm = rec.call("glm", "algorithms", hpdglm, y, x2, family="gaussian")
        finally:
            rec.call("session_stop", "dr", session.__exit__, None, None, None)

        def deploy():
            deploy_model(cluster, kmeans, "km")
            deploy_model(cluster, glm, "glm")

        rec.call("deploy", "deploy", deploy)
        labels = rec.call("predict_kmeans", "predict", cluster.sql, PREDICT_KMEANS,
                          read=True)
        scores = rec.call("predict_glm", "predict", cluster.sql, PREDICT_GLM,
                          read=True)

        self.glm_iterations = int(glm.iterations)
        rec.check(np.allclose(kmeans.centers, self.ref_centers, rtol=1e-8, atol=1e-10),
                  "hpdkmeans centers differ from Lloyd's reference")
        rec.check(np.allclose(glm.coefficients, self.ref_coefficients,
                              rtol=1e-7, atol=1e-9),
                  "hpdglm coefficients differ from lstsq reference")
        rec.check(common.kmeans_counts_match(labels.column("cluster"),
                                            self.ref_counts, self.near_ties),
                  "kmeansPredict cluster sizes differ from reference")
        rec.check(common.same_multiset(scores.column("prediction"), self.ref_glm,
                                       rtol=1e-7),
                  "glmPredict values differ from reference")

    def load_rows_per_s(self, rec: Recorder) -> float:
        return rec.per_second("load", self.rows)

    def layer_metrics(self, rec: Recorder) -> dict[str, float]:
        return {
            "transfer.rows_per_s": rec.per_second("transfer", self.rows),
            "transfer.with_response_rows_per_s": rec.per_second("transfer_y", self.rows),
            "algorithms.kmeans_iters_per_s": rec.per_second("kmeans", KMEANS_ITERATIONS),
            "algorithms.glm_fits_per_s": rec.per_second("glm"),
            "algorithms.glm_iterations": float(self.glm_iterations),
            "deploy.kmeans_rows_per_s": rec.per_second("predict_kmeans", self.rows),
            "deploy.glm_rows_per_s": rec.per_second("predict_glm", self.rows),
        }
