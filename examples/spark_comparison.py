"""End-to-end comparison with Spark-on-HDFS (paper §7.3.2, Figs 20-21).

Runs the *same* K-means (one solver, identical initial centers) through both
stacks at laptop scale — Vertica + Distributed R vs Spark over the DFS in
HDFS's role — then prints the calibrated paper-scale series for Figures 20
and 21.  Exits non-zero when the two stacks' answers disagree.

Run with ``python examples/spark_comparison.py``.
"""

import sys
import time

import numpy as np

from repro import VerticaCluster, db2darray, hpdkmeans, start_session
from repro.perfmodel import model_end_to_end_kmeans
from repro.spark import SparkContext
from repro.vertica import DistributedFileSystem, HashSegmentation
from repro.workloads import make_blobs

ROWS = 60_000
FEATURES = 16
K = 40
NODES = 4


def main() -> None:
    dataset = make_blobs(ROWS, FEATURES, K, seed=5)
    init = dataset.points[np.random.default_rng(0).choice(ROWS, K, False)].copy()
    names = dataset.feature_names()

    # --- Vertica + Distributed R ------------------------------------------
    rng = np.random.default_rng(5)
    columns = {"k": rng.integers(0, 10**7, ROWS), **dataset.as_table_columns()}
    cluster = VerticaCluster(node_count=NODES)
    cluster.create_table_like("points", columns, HashSegmentation("k"))
    cluster.bulk_load("points", columns)

    start = time.perf_counter()
    with start_session(node_count=NODES, instances_per_node=2) as session:
        data = db2darray(cluster, "points", names, session)
        load_vertica = time.perf_counter() - start
        start = time.perf_counter()
        dr_model = hpdkmeans(data, K, initial_centers=init,
                             max_iterations=3, tolerance=0.0)
        iterate_vertica = time.perf_counter() - start
    print(f"Vertica+DR : load {load_vertica:6.2f}s  "
          f"3 iterations {iterate_vertica:6.2f}s  inertia {dr_model.inertia:,.0f}")

    # --- Spark on HDFS -----------------------------------------------------
    hdfs = DistributedFileSystem(node_count=NODES, replication=3)
    with SparkContext(hdfs, executors_per_node=2) as sc:
        sc.save_matrix("/data/points", dataset.points, npartitions=NODES)
        start = time.perf_counter()
        rdd = sc.matrix_from_hdfs("/data/points")
        rdd.collect()
        load_spark = time.perf_counter() - start
        start = time.perf_counter()
        spark_model = hpdkmeans(rdd, K, initial_centers=init,
                                max_iterations=3, tolerance=0.0)
        iterate_spark = time.perf_counter() - start
    print(f"Spark+HDFS : load {load_spark:6.2f}s  "
          f"3 iterations {iterate_spark:6.2f}s  inertia {spark_model.inertia:,.0f}")

    # One solver on both stacks; the database hands DR its rows in segment
    # order, so the floating-point sums agree to rounding, not bit for bit.
    agree = (np.allclose(dr_model.centers, spark_model.centers, atol=1e-8)
             and np.array_equal(dr_model.cluster_sizes, spark_model.cluster_sizes))
    print(f"one solver, same answers: {agree}\n")
    if not agree:
        sys.exit("Vertica+DR and Spark K-means disagree")

    # --- the paper-scale picture (240M x 100, K=1000, 4 nodes) -------------
    print("paper-scale model (Fig 21 configuration):")
    systems = model_end_to_end_kmeans(2.4e8, 100, 1000, NODES, 180, iterations=1)
    for name, outcome in systems.items():
        print(f"  {name:<11s} load {outcome.load_seconds / 60:5.1f} min  "
              f"+ {outcome.per_iteration_seconds / 60:5.1f} min/iteration  "
              f"= {outcome.total_seconds / 60:5.1f} min end-to-end")


if __name__ == "__main__":
    main()
