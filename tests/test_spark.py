"""Tests for the HDFS simulator, the RDD engine, and MLlib-style algorithms."""

import numpy as np
import pytest

from repro.algorithms import hpdkmeans
from repro.dr import start_session
from repro.errors import DfsError, ExecutionError
from repro.spark import HdfsCluster, SparkContext, spark_kmeans, spark_linear_regression
from repro.workloads import make_blobs, make_regression


class TestHdfs:
    def test_write_read_roundtrip(self):
        hdfs = HdfsCluster(datanode_count=3, block_size=16)
        data = bytes(range(100))
        hdfs.write_file("/f", data)
        assert hdfs.read_file("/f") == data

    def test_blocks_split_by_block_size(self):
        hdfs = HdfsCluster(datanode_count=3, block_size=10)
        info = hdfs.write_file("/f", b"x" * 35)
        assert len(info.blocks) == 4
        assert [b.size for b in info.blocks] == [10, 10, 10, 5]

    def test_three_way_replication(self):
        hdfs = HdfsCluster(datanode_count=4, replication=3)
        info = hdfs.write_file("/f", b"data")
        assert len(info.blocks[0].replicas) == 3

    def test_replication_capped_by_nodes(self):
        hdfs = HdfsCluster(datanode_count=2, replication=3)
        info = hdfs.write_file("/f", b"data")
        assert len(info.blocks[0].replicas) == 2

    def test_read_survives_datanode_failure(self):
        hdfs = HdfsCluster(datanode_count=4, replication=3, block_size=8)
        hdfs.write_file("/f", b"important bytes here")
        hdfs.fail_datanode(0)
        hdfs.fail_datanode(1)
        assert hdfs.read_file("/f") == b"important bytes here"

    def test_all_replicas_down_raises(self):
        hdfs = HdfsCluster(datanode_count=3, replication=2)
        hdfs.write_file("/f", b"x")
        for node in range(3):
            hdfs.fail_datanode(node)
        with pytest.raises(DfsError):
            hdfs.read_file("/f")

    def test_overwrite_requires_flag(self):
        hdfs = HdfsCluster()
        hdfs.write_file("/f", b"v1")
        with pytest.raises(DfsError):
            hdfs.write_file("/f", b"v2")
        hdfs.write_file("/f", b"v2", overwrite=True)
        assert hdfs.read_file("/f") == b"v2"

    def test_delete(self):
        hdfs = HdfsCluster()
        hdfs.write_file("/f", b"x")
        hdfs.delete("/f")
        assert not hdfs.exists("/f")
        with pytest.raises(DfsError):
            hdfs.read_file("/f")

    def test_block_locations(self):
        hdfs = HdfsCluster(datanode_count=4, replication=2, block_size=4)
        hdfs.write_file("/f", b"12345678")
        locations = hdfs.block_locations("/f")
        assert len(locations) == 2
        assert all(len(replicas) == 2 for replicas in locations)

    def test_list_files(self):
        hdfs = HdfsCluster()
        hdfs.write_file("/data/a", b"1")
        hdfs.write_file("/data/b", b"2")
        hdfs.write_file("/tmp/c", b"3")
        assert hdfs.list_files("/data/") == ["/data/a", "/data/b"]


class TestRdd:
    @pytest.fixture
    def sc(self):
        with SparkContext(HdfsCluster(datanode_count=3), executors_per_node=2) as sc:
            yield sc

    def test_parallelize_collect(self, sc):
        rdd = sc.parallelize(range(10), npartitions=3)
        assert rdd.collect() == list(range(10))
        assert rdd.npartitions == 3

    def test_map_filter(self, sc):
        rdd = sc.parallelize(range(10)).map(lambda x: x * 2).filter(lambda x: x > 10)
        assert rdd.collect() == [12, 14, 16, 18]

    def test_count_reduce(self, sc):
        rdd = sc.parallelize(range(100), npartitions=4)
        assert rdd.count() == 100
        assert rdd.reduce(lambda a, b: a + b) == 4950

    def test_reduce_empty_rejected(self, sc):
        rdd = sc.parallelize([], npartitions=1)
        with pytest.raises(ExecutionError):
            rdd.reduce(lambda a, b: a + b)

    def test_laziness(self, sc):
        calls = []

        def trace(x):
            calls.append(x)
            return x

        rdd = sc.parallelize(range(5)).map(trace)
        assert calls == []  # nothing computed yet
        rdd.collect()
        assert sorted(calls) == list(range(5))

    def test_cache_avoids_recompute(self, sc):
        calls = []

        def trace(items):
            calls.append(len(items))
            return items

        rdd = sc.parallelize(range(12), npartitions=3).map_partitions(trace).cache()
        rdd.collect()
        first = len(calls)
        rdd.collect()
        assert len(calls) == first  # second action served from cache
        assert sc.metrics.counter("rdd_cache_hits").value >= 3

    def test_unpersist_recomputes(self, sc):
        calls = []
        rdd = sc.parallelize(range(4), npartitions=2).map_partitions(
            lambda items: (calls.append(1), items)[1]
        ).cache()
        rdd.collect()
        rdd.unpersist()
        rdd.collect()
        assert len(calls) == 4

    def test_matrix_from_hdfs_prefers_local(self, sc):
        matrix = np.arange(60.0).reshape(20, 3)
        sc.save_matrix("/m/test", matrix, npartitions=3)
        rdd = sc.matrix_from_hdfs("/m/test")
        assert rdd.npartitions == 3
        loaded = np.vstack(rdd.collect())
        assert np.array_equal(loaded, matrix)
        assert all(rdd.preferred_node(i) is not None for i in range(3))

    def test_matrix_from_missing_prefix(self, sc):
        with pytest.raises(ExecutionError):
            sc.matrix_from_hdfs("/absent")

    def test_stopped_context_rejects_work(self):
        sc = SparkContext(HdfsCluster())
        rdd = sc.parallelize(range(3))
        sc.stop()
        with pytest.raises(ExecutionError):
            rdd.collect()


class TestSparkMl:
    def test_spark_kmeans_matches_distributed_r(self):
        """The Fig 20 apples-to-apples property: same kernel, same answer."""
        dataset = make_blobs(900, 4, 5, seed=1)
        init = dataset.points[:5].copy()

        hdfs = HdfsCluster(datanode_count=3)
        with SparkContext(hdfs) as sc:
            sc.save_matrix("/km/data", dataset.points, npartitions=3)
            rdd = sc.matrix_from_hdfs("/km/data")
            spark_model = spark_kmeans(rdd, 5, initial_centers=init,
                                       max_iterations=8, tolerance=0.0)

        with start_session(node_count=3, instances_per_node=2) as session:
            data = session.darray(npartitions=3)
            data.fill_from(dataset.points)
            dr_model = hpdkmeans(data, k=5, initial_centers=init,
                                 max_iterations=8, tolerance=0.0)

        assert np.allclose(spark_model.centers, dr_model.centers, atol=1e-8)
        assert spark_model.inertia == pytest.approx(dr_model.inertia)

    def test_spark_kmeans_converges(self):
        dataset = make_blobs(600, 3, 4, spread=0.15, seed=2)
        with SparkContext(HdfsCluster(datanode_count=2)) as sc:
            sc.save_matrix("/km/d2", dataset.points, npartitions=2)
            model = spark_kmeans(sc.matrix_from_hdfs("/km/d2"), 4, seed=0,
                                 max_iterations=25)
        assert model.converged
        for center in dataset.centers:
            assert np.linalg.norm(model.centers - center, axis=1).min() < 0.5

    def test_spark_kmeans_k_too_large(self):
        with SparkContext(HdfsCluster(datanode_count=2)) as sc:
            sc.save_matrix("/km/d3", np.ones((3, 2)), npartitions=1)
            with pytest.raises(Exception):
                spark_kmeans(sc.matrix_from_hdfs("/km/d3"), 10)

    def test_spark_linear_regression(self):
        data = make_regression(2000, 3, noise_scale=0.05, seed=3)
        xy = np.column_stack([data.responses, data.features])
        with SparkContext(HdfsCluster(datanode_count=2)) as sc:
            sc.save_matrix("/lr/data", xy, npartitions=4)
            coefficients = spark_linear_regression(sc.matrix_from_hdfs("/lr/data"), 3)
        assert coefficients[0] == pytest.approx(data.true_intercept, abs=0.02)
        assert np.allclose(coefficients[1:], data.true_coefficients, atol=0.02)
