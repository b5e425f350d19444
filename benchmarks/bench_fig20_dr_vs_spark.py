"""Figure 20: K-means per iteration — Distributed R vs Spark, weak scaling.

Real layer: the *same* solver through both runtimes (hpdkmeans on a DR
darray and on a Spark RDD read from the DFS) with identical initial centers;
the answers must be bit-identical (apples-to-apples), and the per-iteration
timings are measured.  Paper-scale layer: the 1/4/8-node, 60M-rows-per-node
series where DR is ~20% faster.
"""

import numpy as np
import pytest

from repro.algorithms import hpdkmeans
from repro.dr import start_session
from repro.perfmodel import (
    model_kmeans_iteration_blas,
    model_spark_kmeans_iteration,
)
from repro.spark import SparkContext
from repro.vertica import DistributedFileSystem
from repro.workloads import make_blobs

ROWS = 60_000
FEATURES = 20
K = 50


@pytest.fixture(scope="module")
def dataset():
    return make_blobs(ROWS, FEATURES, K, seed=20)


@pytest.fixture(scope="module")
def init(dataset):
    rng = np.random.default_rng(1)
    return dataset.points[rng.choice(ROWS, K, replace=False)].copy()


def test_fig20_dr_iteration(benchmark, dataset, init):
    with start_session(node_count=4, instances_per_node=1) as session:
        data = session.darray(npartitions=4)
        data.fill_from(dataset.points)
        model = benchmark.pedantic(
            lambda: hpdkmeans(data, K, initial_centers=init,
                              max_iterations=1, tolerance=0.0),
            rounds=3, iterations=1,
        )
    assert model.iterations == 1
    benchmark.extra_info.update({
        f"paper_dr_{n}nodes_s": round(
            model_kmeans_iteration_blas(rows, 100, 1000, n), 1)
        for n, rows in ((1, 6e7), (4, 2.4e8), (8, 4.8e8))
    })


def test_fig20_spark_iteration(benchmark, dataset, init):
    hdfs = DistributedFileSystem(node_count=4, replication=3)
    with SparkContext(hdfs, executors_per_node=1) as sc:
        sc.save_matrix("/km/fig20", dataset.points, npartitions=4)
        rdd = sc.matrix_from_hdfs("/km/fig20")
        rdd.collect()  # fill the cache: iteration time excludes load
        spark_model = benchmark.pedantic(
            lambda: hpdkmeans(rdd, K, initial_centers=init,
                              max_iterations=1, tolerance=0.0),
            rounds=3, iterations=1,
        )
    # Apples-to-apples: same solver, same init => identical first iteration.
    with start_session(node_count=4, instances_per_node=1) as session:
        data = session.darray(npartitions=4)
        data.fill_from(dataset.points)
        dr_model = hpdkmeans(data, K, initial_centers=init,
                             max_iterations=1, tolerance=0.0)
    assert spark_model.inertia == dr_model.inertia
    assert np.array_equal(spark_model.centers, dr_model.centers)
    assert np.array_equal(spark_model.cluster_sizes, dr_model.cluster_sizes)
    benchmark.extra_info.update({
        f"paper_spark_{n}nodes_s": round(
            model_spark_kmeans_iteration(rows, 100, 1000, n), 1)
        for n, rows in ((1, 6e7), (4, 2.4e8), (8, 4.8e8))
    })


def test_fig20_shape_dr_20_percent_faster_and_flat():
    for nodes, rows in ((1, 6e7), (4, 2.4e8), (8, 4.8e8)):
        dr = model_kmeans_iteration_blas(rows, 100, 1000, nodes)
        spark = model_spark_kmeans_iteration(rows, 100, 1000, nodes)
        assert 1.1 <= spark / dr <= 1.5, "DR about 20% faster"
    dr_series = [model_kmeans_iteration_blas(rows, 100, 1000, n)
                 for n, rows in ((1, 6e7), (4, 2.4e8), (8, 4.8e8))]
    assert max(dr_series) / min(dr_series) < 1.01, "weak scaling flat"
