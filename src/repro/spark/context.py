"""SparkContext analog: an executor pool over a DFS standing in for HDFS.

The DFS (:class:`~repro.vertica.dfs.DistributedFileSystem`) plays HDFS's
role: replicated, checksummed files whose reads go to the first live
replica (Spark schedules a task where its block lives, so that read is
local).  An :class:`RDD` is a cached matrix read from those files and is a
:func:`~repro.algorithms.fold.fold_fit` carrier, so Spark's K-means is
:func:`~repro.algorithms.kmeans.hpdkmeans` itself: "Spark and DR denote the
same implementation of the K-means algorithm" (§7.3.2) by construction.
"""

from __future__ import annotations

import io
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro.dr.dobject import check_partition
from repro.errors import ExecutionError, PartitionError
from repro.obs.metrics import MetricsRegistry
from repro.vertica.dfs import DistributedFileSystem

__all__ = ["SparkContext", "RDD"]


class SparkContext:
    """Driver + executor pool bound to a DFS."""

    def __init__(self, store: DistributedFileSystem,
                 executors_per_node: int = 2) -> None:
        if executors_per_node < 1:
            raise ExecutionError("need at least one executor per node")
        self.store = store
        self.executors_per_node = executors_per_node
        self.metrics = MetricsRegistry()
        total = store.node_count * executors_per_node
        self._pool = ThreadPoolExecutor(max_workers=total, thread_name_prefix="spark-exec")
        self._stopped = False

    def run_tasks(self, fn: Callable[[int], object], count: int) -> list:
        """``fn(partition)`` for partitions ``0..count-1`` on the executor
        pool; results in partition order."""
        if self._stopped:
            raise ExecutionError("SparkContext is stopped")
        futures = [self._pool.submit(fn, partition) for partition in range(count)]
        self.metrics.counter("spark_tasks").add(count)
        return [future.result() for future in futures]

    def save_matrix(self, path_prefix: str, matrix: np.ndarray,
                    npartitions: int | None = None) -> list[str]:
        """Write a matrix to the DFS as one .npy file per partition."""
        matrix = np.asarray(matrix, dtype=np.float64)
        n = npartitions or self.store.node_count
        boundaries = np.linspace(0, len(matrix), n + 1).astype(int)
        paths = []
        for i in range(n):
            buffer = io.BytesIO()
            np.save(buffer, matrix[boundaries[i]:boundaries[i + 1]],
                    allow_pickle=False)
            path = f"{path_prefix}/part-{i:05d}.npy"
            self.store.write(path, buffer.getvalue(), overwrite=True)
            paths.append(path)
        return paths

    def matrix_from_hdfs(self, path_prefix: str) -> "RDD":
        """The matrix written by :meth:`save_matrix`: one partition per file."""
        paths = [info.path for info in self.store.list_files(path_prefix)]
        if not paths:
            raise ExecutionError(f"no DFS files under {path_prefix!r}")
        return RDD(self, paths)

    def stop(self) -> None:
        if not self._stopped:
            self._stopped = True
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "SparkContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class RDD:
    """A row-partitioned matrix read from DFS files, cached after first use,
    one column-major (Fortran-order) float64 matrix per partition.

    The first access reads every partition on the executor pool and keeps
    it in memory, so iterative algorithms pay the load once (what makes
    Spark "an order of magnitude faster" than MapReduce, §7.3.2).  The
    surface is :class:`~repro.algorithms.fold.LocalArray`'s, with
    :meth:`map_partitions` fanned out over the executors.
    """

    is_filled = True

    def __init__(self, context: SparkContext, paths: list[str]) -> None:
        self.context = context
        self._paths = paths
        self._parts: list[np.ndarray] | None = None
        self._lock = threading.Lock()

    def _read(self, partition: int) -> np.ndarray:
        raw = self.context.store.read(self._paths[partition])
        self.context.metrics.counter("rdd_partitions_computed").add()
        return np.asarray(np.load(io.BytesIO(raw), allow_pickle=False),
                          dtype=np.float64, order="F")

    def _partitions(self) -> list[np.ndarray]:
        with self._lock:
            if self._parts is None:
                self._parts = self.context.run_tasks(self._read, self.npartitions)
            else:
                self.context.metrics.counter("rdd_cache_hits").add(self.npartitions)
            return self._parts

    @property
    def npartitions(self) -> int:
        return len(self._paths)

    @property
    def nrow(self) -> int:
        return sum(len(part) for part in self._partitions())

    @property
    def ncol(self) -> int:
        return self._partitions()[0].shape[1]

    def partition_shapes(self) -> list[tuple[int, int]]:
        return [part.shape for part in self._partitions()]

    def get_partition(self, partition: int) -> np.ndarray:
        check_partition(partition, self.npartitions)
        return self._partitions()[partition]

    def map_partitions(self, fn: Callable, *others: "RDD") -> list:
        """``fn(index, partition, *other_partitions)`` per partition on the
        executor pool; results in partition order."""
        for other in others:
            if other.npartitions != self.npartitions:
                raise PartitionError(
                    f"co-partitioning mismatch: {self.npartitions} vs "
                    f"{other.npartitions} partitions"
                )
        parts = [self._partitions()] + [other._partitions() for other in others]
        return self.context.run_tasks(
            lambda index: fn(index, *[p[index] for p in parts]), self.npartitions)

    def collect(self) -> np.ndarray:
        return np.vstack(self._partitions())
