"""`scoring` — in-database prediction over a loaded table (Fig 15/16 shape),
one client.

Set-up loads the table on 4 nodes and deploys K-means, a GLM and a small
forest.  Each pass scores the whole table with `kmeansPredict` and
`glmPredict`, then a 10 % `ts BETWEEN` band with `glmPredict` and `rfPredict`.

Why: scan + decode and the prediction UDTF fan-out dominate; `transfer`,
`dr` and `algorithms` do nothing, so a VFT or solver change must not move it.
"""

from __future__ import annotations

import numpy as np

from bench.harness import Recorder, rate
from bench.workloads import common
from bench.workloads.common import FEATURE_ARGS, FEATURES, NODES, Scale


def predict_sql(function: str, model: str, where: str = "") -> str:
    return (f"SELECT {function}({FEATURE_ARGS} USING PARAMETERS model='{model}') "
            f"OVER (PARTITION BEST) FROM t{where}")


class Scoring(common.Workload):
    name = "scoring"
    table = "t"
    geomean_steps = ("predict_kmeans", "predict_glm", "predict_glm_band",
                     "predict_rf_band")

    def __init__(self, seed: int, scale: Scale) -> None:
        rng = np.random.default_rng([seed, 2])
        n = self.rows = scale.scoring_rows
        self.scale = scale
        x = rng.normal(size=(n, len(FEATURES)))
        ts = np.sort(rng.integers(0, 10 * n, n))
        self.columns = {"k": np.arange(n), "ts": ts}
        for j, name in enumerate(FEATURES):
            self.columns[name] = np.ascontiguousarray(x[:, j])
        beta = rng.normal(size=len(FEATURES) + 1)
        self.response = beta[0] + x @ beta[1:] + 0.1 * rng.normal(size=n)
        self.x = x
        lo, hi = int(ts[int(0.40 * n)]), int(ts[int(0.50 * n)])
        self.band = (ts >= lo) & (ts <= hi)
        where = f" WHERE ts BETWEEN {lo} AND {hi}"
        self.statements = {
            "predict_kmeans": predict_sql("kmeansPredict", "km"),
            "predict_glm": predict_sql("glmPredict", "glm"),
            "predict_glm_band": predict_sql("glmPredict", "glm", where),
            "predict_rf_band": predict_sql("rfPredict", "rf", where),
        }
        self.sql_texts = list(self.statements.values())
        self.user_bytes = common.raw_bytes(self.columns)
        self.models: dict = {}
        self.references: dict = {}

    def setup(self, rec: Recorder) -> None:
        from repro import VerticaCluster, deploy_model

        self.cluster = VerticaCluster(NODES)
        common.load_table(self.cluster, rec, self.table, self.columns,
                          self.scale.load_chunks)
        self.models = common.fit_models(self.columns, self.response, FEATURES,
                                        self.scale.model_sample, forest=True)
        for name, model in (("km", "kmeans"), ("glm", "glm"), ("rf", "rf")):
            deploy_model(self.cluster, self.models[model], name)
        for sql in self.statements.values():   # warm-up: UDTFs, model cache
            self.cluster.sql(sql)
        if not self.references:
            glm = common.glm_reference(self.models["glm"], self.x)
            self.references = {
                "kmeans": common.kmeans_reference(self.models["kmeans"].centers, self.x),
                "glm": glm,
                "glm_band": glm[self.band],
                # A forest has no closed form: the reference is the model's
                # own kernel on the in-memory matrix.
                "rf_band": self.models["rf"].predict(self.x[self.band]),
            }

    def run_pass(self, rec: Recorder, index: int) -> None:
        out = {}
        for step, sql in self.statements.items():
            out[step] = rec.call(step, "predict", self.cluster.sql, sql, read=True,
                                 tag="band" if step.endswith("_band") else None)
        counts, near_ties = self.references["kmeans"]
        rec.check(common.kmeans_counts_match(out["predict_kmeans"].column("cluster"),
                                            counts, near_ties),
                  "kmeansPredict cluster sizes differ from reference")
        for step, key in (("predict_glm", "glm"), ("predict_glm_band", "glm_band"),
                          ("predict_rf_band", "rf_band")):
            rec.check(common.same_multiset(out[step].column("prediction"),
                                           self.references[key]),
                      f"{step} values differ from reference")

    def finish(self, rec: Recorder, traced: bool) -> None:
        if traced:
            # What the same scan costs without a model, for the UDTF
            # overhead ratio.
            scan = "SELECT " + ", ".join(f"SUM({c})" for c in FEATURES) + " FROM t"
            for _ in range(5):
                rec.call("scan_only", "executor", self.cluster.sql, scan)

    def layer_metrics(self, rec: Recorder) -> dict[str, float]:
        from bench.probes import timed

        kernel_s = timed(lambda: self.models["glm"].predict(self.x))[0]
        band_rows = int(self.band.sum())
        return {
            "deploy.kmeans_rows_per_s": rec.per_second("predict_kmeans", self.rows),
            "deploy.glm_rows_per_s": rec.per_second("predict_glm", self.rows),
            "deploy.rf_rows_per_s": rec.per_second("predict_rf_band", band_rows),
            "deploy.udtf_overhead_ratio": rate(
                rec.median_s("predict_glm"), kernel_s + rec.median_s("scan_only")),
        }
