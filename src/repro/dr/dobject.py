"""Base machinery shared by darray / dframe / dlist.

Each distributed object owns a list of :class:`PartitionInfo` records — the
master-side metadata the paper describes: "After declaration, metadata
related to darray is created on the Distributed R master node, but no memory
is reserved on the workers to store data contents" (§4).  Partition contents
live on workers and are only materialized on the master by ``collect``.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import PartitionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dr.session import DRSession

__all__ = ["PartitionInfo", "DistributedObject"]

_OBJECT_IDS = itertools.count(1)


@dataclass
class PartitionInfo:
    """Master-side metadata for one partition."""

    index: int
    worker_index: int
    nrow: int | None = None
    ncol: int | None = None
    nbytes: int = 0

    @property
    def filled(self) -> bool:
        return self.nrow is not None


class DistributedObject:
    """A partitioned object whose contents live on session workers."""

    kind = "object"

    def __init__(self, session: "DRSession", npartitions: int,
                 worker_assignment: Sequence[int] | None = None) -> None:
        if npartitions < 1:
            raise PartitionError("npartitions must be >= 1")
        self.session = session
        self.object_id = next(_OBJECT_IDS)
        if worker_assignment is None:
            worker_count = len(session.workers)
            worker_assignment = [i % worker_count for i in range(npartitions)]
        if len(worker_assignment) != npartitions:
            raise PartitionError(
                f"{len(worker_assignment)} worker assignments for "
                f"{npartitions} partitions"
            )
        for worker_index in worker_assignment:
            if not 0 <= worker_index < len(session.workers):
                raise PartitionError(f"no worker {worker_index} in this session")
        self.partitions = [
            PartitionInfo(index=i, worker_index=worker_assignment[i])
            for i in range(npartitions)
        ]
        self._lock = threading.Lock()
        session.master.register(self)

    # -- basic introspection ---------------------------------------------------

    @property
    def npartitions(self) -> int:
        return len(self.partitions)

    @property
    def is_filled(self) -> bool:
        return all(p.filled for p in self.partitions)

    def worker_of(self, partition: int) -> int:
        return self._info(partition).worker_index

    def _info(self, partition: int) -> PartitionInfo:
        if not 0 <= partition < self.npartitions:
            raise PartitionError(
                f"partition {partition} out of range [0, {self.npartitions})"
            )
        return self.partitions[partition]

    # -- partition storage plumbing -----------------------------------------------

    def _store(self, partition: int, value: Any, nrow: int, ncol: int | None,
               nbytes: int) -> None:
        info = self._info(partition)
        worker = self.session.workers[info.worker_index]
        worker.put_partition(self.object_id, partition, value, nbytes)
        with self._lock:
            info.nrow = nrow
            info.ncol = ncol
            info.nbytes = nbytes

    def reassign_worker(self, dead: int, survivor: int) -> int:
        """Move this object's partitions off a failed worker.

        The contents died with the worker, so moved partitions are marked
        unfilled; a re-executed task refills them on the survivor (writes
        are idempotent: :meth:`_store` resolves ``info.worker_index`` at
        write time, so the re-fill lands on the new worker).  Returns how
        many partitions moved.
        """
        moved = 0
        with self._lock:
            for info in self.partitions:
                if info.worker_index == dead:
                    info.worker_index = survivor
                    info.nrow = None
                    info.ncol = None
                    info.nbytes = 0
                    moved += 1
        return moved

    def get_partition(self, partition: int) -> Any:
        """Fetch one partition's contents to the caller (the master)."""
        info = self._info(partition)
        if not info.filled:
            raise PartitionError(
                f"partition {partition} of {self.kind} {self.object_id} is empty"
            )
        worker = self.session.workers[info.worker_index]
        return worker.get_partition(self.object_id, partition)

    def free(self) -> None:
        """Drop all partition contents from the workers."""
        for worker in self.session.workers:
            worker.drop_object(self.object_id)
        with self._lock:
            for info in self.partitions:
                info.nrow = None
                info.ncol = None
                info.nbytes = 0

    # -- data-parallel execution -----------------------------------------------------

    def map_partitions(self, fn: Callable, *others: "DistributedObject") -> list:
        """Run ``fn(index, this_partition, *other_partitions)`` per partition.

        ``others`` must be co-partitioned with this object (same partition
        count); partitions that live on a different worker are fetched, and
        the fetch is charged to session metrics (co-located inputs — the
        ``clone`` pattern — stay local).
        """
        self._check_copartitioned(others)

        def task(index: int) -> Any:
            args = [self._local_partition(self, index)]
            for other in others:
                args.append(self._local_partition(other, index, relative_to=self))
            return fn(index, *args)

        return self.session.run_partition_tasks(
            [(self.worker_of(i), task, i) for i in range(self.npartitions)]
        )

    def _check_copartitioned(self, others: Sequence["DistributedObject"]) -> None:
        for other in others:
            if other.session is not self.session:
                raise PartitionError("objects belong to different sessions")
            if other.npartitions != self.npartitions:
                raise PartitionError(
                    f"co-partitioning mismatch: {self.npartitions} vs "
                    f"{other.npartitions} partitions"
                )

    def _local_partition(self, obj: "DistributedObject", index: int,
                         relative_to: "DistributedObject" | None = None) -> Any:
        value = obj.get_partition(index)
        anchor = relative_to or obj
        if obj.worker_of(index) != anchor.worker_of(index):
            self.session.metrics.counter("dr_remote_partition_fetches").add()
            self.session.metrics.counter("dr_remote_bytes").add(obj.partitions[index].nbytes)
        return value
