"""SparkContext analog: executors over HDFS with locality-aware tasks."""

from __future__ import annotations

import io
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.obs.metrics import MetricsRegistry
from repro.spark.hdfs import HdfsCluster
from repro.spark.rdd import RDD

__all__ = ["SparkContext"]


class SparkContext:
    """Driver + executor pool bound to an HDFS cluster."""

    def __init__(self, hdfs: HdfsCluster, executors_per_node: int = 2) -> None:
        if executors_per_node < 1:
            raise ExecutionError("need at least one executor per node")
        self.hdfs = hdfs
        self.executors_per_node = executors_per_node
        self.metrics = MetricsRegistry()
        total = hdfs.datanode_count * executors_per_node
        self._pool = ThreadPoolExecutor(max_workers=total, thread_name_prefix="spark-exec")
        self._stopped = False

    @property
    def node_count(self) -> int:
        return self.hdfs.datanode_count

    def run_tasks(self, tasks: list[tuple[int | None, Callable, int]]) -> list:
        """Run (preferred_node, fn, partition) tasks on the executor pool."""
        if self._stopped:
            raise ExecutionError("SparkContext is stopped")
        futures = [self._pool.submit(fn, arg) for _, fn, arg in tasks]
        self.metrics.counter("spark_tasks").add(len(futures))
        return [future.result() for future in futures]

    # -- RDD constructors ------------------------------------------------------

    def parallelize(self, items: Sequence, npartitions: int | None = None) -> RDD:
        """Distribute an in-memory sequence."""
        data = list(items)
        n = npartitions or max(1, self.node_count)
        boundaries = np.linspace(0, len(data), n + 1).astype(int)
        slices = [data[boundaries[i]:boundaries[i + 1]] for i in range(n)]
        return RDD(self, lambda p: slices[p], n,
                   preferred_nodes=[i % self.node_count for i in range(n)])

    def matrix_from_hdfs(self, path_prefix: str) -> RDD:
        """Load matrices written by :meth:`save_matrix`: one partition per
        HDFS file, items are numpy row-chunks."""
        paths = self.hdfs.list_files(path_prefix)
        if not paths:
            raise ExecutionError(f"no HDFS files under {path_prefix!r}")
        preferred = []
        for path in paths:
            locations = self.hdfs.block_locations(path)
            preferred.append(locations[0][0] if locations else 0)

        def compute(partition: int) -> list:
            raw = self.hdfs.read_file(paths[partition], from_node=preferred[partition])
            matrix = np.load(io.BytesIO(raw), allow_pickle=False)
            return [matrix]

        return RDD(self, compute, len(paths), preferred_nodes=preferred)

    def save_matrix(self, path_prefix: str, matrix: np.ndarray,
                    npartitions: int | None = None) -> list[str]:
        """Write a matrix to HDFS as one .npy file per partition."""
        matrix = np.asarray(matrix, dtype=np.float64)
        n = npartitions or max(1, self.node_count)
        boundaries = np.linspace(0, len(matrix), n + 1).astype(int)
        paths = []
        for i in range(n):
            chunk = matrix[boundaries[i]:boundaries[i + 1]]
            buffer = io.BytesIO()
            np.save(buffer, chunk, allow_pickle=False)
            path = f"{path_prefix}/part-{i:05d}.npy"
            self.hdfs.write_file(path, buffer.getvalue(), overwrite=True)
            paths.append(path)
        return paths

    def stop(self) -> None:
        if not self._stopped:
            self._stopped = True
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "SparkContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
