"""Figure 16: scalability of in-database linear-regression prediction.

Real layer: ``glmPredict`` over tables of growing size, validated against
local predictions.  Paper-scale layer: 10M-1B rows on 5 nodes; GLM scoring
is cheaper per row than K-means (Fig 15 vs 16).
"""

import numpy as np
import pytest

from benchmarks.conftest import build_numeric_table
from repro.algorithms import hpdglm
from repro.deploy import deploy_model
from repro.dr import start_session
from repro.perfmodel import model_in_db_prediction
from repro.workloads import make_regression

FEATURES = 6


def make_scoring_setup(rows: int):
    cluster, names = build_numeric_table(3, rows, FEATURES, seed=16)
    data = make_regression(3000, FEATURES, seed=16)
    with start_session(node_count=3, instances_per_node=2) as session:
        x = session.darray(npartitions=3)
        x.fill_from(data.features)
        y = session.darray(npartitions=3,
                           worker_assignment=[x.worker_of(i) for i in range(3)])
        boundaries = np.linspace(0, 3000, 4).astype(int)
        for i in range(3):
            y.fill_partition(
                i, data.responses[boundaries[i]:boundaries[i + 1]].reshape(-1, 1))
        model = hpdglm(y, x)
    deploy_model(cluster, model, "reg")
    query = (
        f"SELECT glmPredict({', '.join(names)} USING PARAMETERS model='reg') "
        "OVER (PARTITION BEST) FROM bench"
    )
    return cluster, names, model, query


@pytest.mark.parametrize("rows", [20_000, 80_000])
def test_fig16_glm_predict(benchmark, rows):
    cluster, names, model, query = make_scoring_setup(rows)
    result = benchmark.pedantic(lambda: cluster.sql(query), rounds=3, iterations=1)
    assert len(result) == rows
    table = cluster.gather_table("bench", names)
    local = model.predict(np.column_stack([table[n] for n in names]))
    assert np.allclose(np.sort(result.column("prediction")), np.sort(local))
    if rows == 80_000:
        benchmark.extra_info.update({
            f"paper_{int(r):d}rows_s": round(
                model_in_db_prediction(r, "glm", 5).total_seconds, 1)
            for r in (1e7, 1e8, 1e9)
        })


def test_fig16_shape_glm_cheaper_than_kmeans_and_linear():
    glm_1b = model_in_db_prediction(1e9, "glm", 5).total_seconds
    km_1b = model_in_db_prediction(1e9, "kmeans", 5).total_seconds
    assert glm_1b < km_1b
    assert glm_1b < 250  # paper: 206 s
    scan_ratio = (model_in_db_prediction(1e9, "glm", 5).scan_seconds
                  / model_in_db_prediction(1e8, "glm", 5).scan_seconds)
    assert scan_ratio == pytest.approx(10.0)
