"""Figure 21: end-to-end K-means — load + iterate for each system.

Real layer: the full pipeline on each substrate: (a) VFT out of the database
into Distributed R, then one K-means iteration; (b) Spark loading the same
matrix from the DFS (in HDFS's role), then one iteration; (c) Distributed R
loading from local ext4 files.  Paper-scale layer: the 240M x 100 / 4-node comparison where the
systems roughly tie.
"""

import numpy as np
import pytest

from benchmarks.conftest import build_numeric_table
from repro.algorithms import hpdkmeans
from repro.dr import start_session
from repro.perfmodel import model_end_to_end_kmeans
from repro.spark import SparkContext
from repro.transfer import db2darray
from repro.vertica import DistributedFileSystem

ROWS = 30_000
FEATURES = 10
K = 20


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(21)
    return rng.normal(size=(ROWS, FEATURES))


@pytest.fixture(scope="module")
def init(matrix):
    return matrix[:K].copy()


def test_fig21_vertica_dr_end_to_end(benchmark, matrix, init):
    cluster, names = build_numeric_table(4, ROWS, FEATURES, seed=21)

    def run():
        with start_session(node_count=4, instances_per_node=2) as session:
            data = db2darray(cluster, "bench", names, session)
            return hpdkmeans(data, K, initial_centers=init,
                             max_iterations=1, tolerance=0.0)

    model = benchmark.pedantic(run, rounds=2, iterations=1)
    assert model.n_observations == ROWS
    systems = model_end_to_end_kmeans(2.4e8, 100, 1000, 4, 180, iterations=1)
    benchmark.extra_info.update({
        f"paper_{name}_{'load' if part == 0 else 'total'}_s": round(value, 1)
        for name, outcome in systems.items()
        for part, value in enumerate((outcome.load_seconds, outcome.total_seconds))
    })


def test_fig21_spark_hdfs_end_to_end(benchmark, matrix, init):
    hdfs = DistributedFileSystem(node_count=4, replication=3)
    with SparkContext(hdfs, executors_per_node=2) as sc:
        sc.save_matrix("/fig21/data", matrix, npartitions=4)

        def run():
            rdd = sc.matrix_from_hdfs("/fig21/data")
            return hpdkmeans(rdd, K, initial_centers=init,
                             max_iterations=1, tolerance=0.0)

        model = benchmark.pedantic(run, rounds=2, iterations=1)
    assert model.n_observations == ROWS


def test_fig21_dr_ext4_end_to_end(benchmark, matrix, init, tmp_path_factory):
    directory = tmp_path_factory.mktemp("ext4")
    boundaries = np.linspace(0, ROWS, 5).astype(int)
    paths = []
    for i in range(4):
        path = directory / f"part{i}.npy"
        np.save(path, matrix[boundaries[i]:boundaries[i + 1]])
        paths.append(path)

    def run():
        with start_session(node_count=4, instances_per_node=2) as session:
            data = session.darray(npartitions=4)
            for i, path in enumerate(paths):
                data.fill_partition(i, np.load(path))
            return hpdkmeans(data, K, initial_centers=init,
                             max_iterations=1, tolerance=0.0)

    model = benchmark.pedantic(run, rounds=2, iterations=1)
    assert model.n_observations == ROWS


def test_fig21_shape_near_tie_and_load_ordering():
    systems = model_end_to_end_kmeans(2.4e8, 100, 1000, 4, 180, iterations=1)
    vertica, spark, ext4 = (systems["vertica+dr"], systems["spark+hdfs"],
                            systems["dr+ext4"])
    # Loads: ext4 < HDFS < Vertica ("higher overheads involved in extracting
    # data from distributed filesystems and databases").
    assert ext4.load_seconds < spark.load_seconds < vertica.load_seconds
    # ext4 about 2x faster than HDFS and 3x faster than Vertica:
    assert 1.5 <= spark.load_seconds / ext4.load_seconds <= 3.0
    assert 2.0 <= vertica.load_seconds / ext4.load_seconds <= 4.0
    # End-to-end: near tie between Vertica+DR and Spark.
    ratio = vertica.total_seconds / spark.total_seconds
    assert 0.75 <= ratio <= 1.25
