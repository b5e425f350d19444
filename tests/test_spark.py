"""Tests for the Spark comparator: an executor pool over the DFS and an RDD
that the fold solvers run on unchanged."""

import numpy as np
import pytest

from repro.algorithms import hpdkmeans
from repro.dr import start_session
from repro.errors import ExecutionError, ModelError, PartitionError
from repro.spark import SparkContext
from repro.vertica import DistributedFileSystem
from repro.workloads import make_blobs


def _context(nodes: int = 3, replication: int = 2) -> SparkContext:
    return SparkContext(DistributedFileSystem(nodes, replication=replication))


class TestHdfs:
    def test_replication_capped_by_nodes(self):
        with _context(nodes=2, replication=3) as sc:
            sc.save_matrix("/m/capped", np.ones((4, 2)), npartitions=2)
            infos = sc.store.list_files("/m/capped")
        assert [len(info.replica_nodes) for info in infos] == [2, 2]


class TestRdd:
    @pytest.fixture
    def sc(self):
        with _context() as sc:
            yield sc

    def test_save_and_read_matrix_roundtrip(self, sc):
        matrix = np.arange(60.0).reshape(20, 3)
        sc.save_matrix("/m/test", matrix, npartitions=3)
        rdd = sc.matrix_from_hdfs("/m/test")
        assert rdd.npartitions == 3
        assert (rdd.nrow, rdd.ncol) == (20, 3)
        assert rdd.partition_shapes() == [(6, 3), (7, 3), (7, 3)]
        assert np.array_equal(rdd.collect(), matrix)
        assert np.array_equal(rdd.get_partition(1), matrix[6:13])

    def test_matrix_from_missing_prefix(self, sc):
        with pytest.raises(ExecutionError):
            sc.matrix_from_hdfs("/absent")

    def test_cache_avoids_recompute(self, sc):
        sc.save_matrix("/m/cached", np.ones((12, 2)), npartitions=3)
        rdd = sc.matrix_from_hdfs("/m/cached")
        rdd.collect()
        assert sc.metrics.counter("rdd_partitions_computed").value == 3
        sums = rdd.map_partitions(lambda i, part: float(part.sum()))
        assert sums == [8.0, 8.0, 8.0]
        # the second access is served from memory, not re-read from the DFS
        assert sc.metrics.counter("rdd_partitions_computed").value == 3
        assert sc.metrics.counter("rdd_cache_hits").value == 3

    def test_map_partitions_zips_co_partitioned_rdds(self, sc):
        sc.save_matrix("/m/x", np.arange(8.0).reshape(4, 2), npartitions=2)
        sc.save_matrix("/m/y", np.arange(4.0), npartitions=2)
        x, y = sc.matrix_from_hdfs("/m/x"), sc.matrix_from_hdfs("/m/y")
        assert x.map_partitions(lambda i, a, b: (i, len(a), b.ravel().tolist()),
                                y) == [(0, 2, [0.0, 1.0]), (1, 2, [2.0, 3.0])]
        sc.save_matrix("/m/z", np.arange(3.0), npartitions=3)
        with pytest.raises(PartitionError):
            x.map_partitions(lambda i, a, b: None, sc.matrix_from_hdfs("/m/z"))

    def test_read_survives_datanode_failure(self):
        with _context(nodes=4, replication=3) as sc:
            matrix = np.arange(40.0).reshape(10, 4)
            sc.save_matrix("/m/safe", matrix, npartitions=4)
            sc.store.fail_node(0)
            sc.store.fail_node(1)
            assert np.array_equal(sc.matrix_from_hdfs("/m/safe").collect(), matrix)

    def test_stopped_context_rejects_work(self):
        sc = _context()
        sc.save_matrix("/m/stop", np.ones((3, 1)))
        rdd = sc.matrix_from_hdfs("/m/stop")
        sc.stop()
        with pytest.raises(ExecutionError):
            rdd.collect()


class TestKmeansOnRdd:
    def test_hpdkmeans_on_rdd_converges(self):
        dataset = make_blobs(600, 3, 4, spread=0.15, seed=2)
        with _context(nodes=2) as sc:
            sc.save_matrix("/km/d2", dataset.points, npartitions=2)
            model = hpdkmeans(sc.matrix_from_hdfs("/km/d2"), 4, seed=0,
                              max_iterations=25)
        assert model.converged
        for center in dataset.centers:
            assert np.linalg.norm(model.centers - center, axis=1).min() < 0.5

    def test_hpdkmeans_on_rdd_k_too_large(self):
        with _context(nodes=2) as sc:
            sc.save_matrix("/km/d3", np.ones((3, 2)), npartitions=1)
            with pytest.raises(ModelError):
                hpdkmeans(sc.matrix_from_hdfs("/km/d3"), 10)


class TestSparkMl:
    def test_spark_kmeans_matches_distributed_r(self):
        """The Fig 20 apples-to-apples property: same kernel, same answer."""
        dataset = make_blobs(900, 4, 5, seed=1)
        init = dataset.points[:5].copy()

        with _context(nodes=3) as sc:
            sc.save_matrix("/km/data", dataset.points, npartitions=3)
            spark_model = hpdkmeans(sc.matrix_from_hdfs("/km/data"), 5,
                                    initial_centers=init, max_iterations=8,
                                    tolerance=0.0)

        with start_session(node_count=3, instances_per_node=2) as session:
            data = session.darray(npartitions=3)
            data.fill_from(dataset.points)
            dr_model = hpdkmeans(data, k=5, initial_centers=init,
                                 max_iterations=8, tolerance=0.0)

        assert np.allclose(spark_model.centers, dr_model.centers, atol=1e-8)
        assert spark_model.inertia == pytest.approx(dr_model.inertia)
