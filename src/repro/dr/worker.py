"""Distributed R workers.

A worker is one R instance pool on one machine: it stores partitions of
distributed data structures in memory, stages incoming Vertica Fast Transfer
streams in shared-memory buffers (the paper's ``/dev/shm`` files, §3.3), and
executes partition tasks.  Workers carry a ``node_index`` so transfers can
reason about co-location with database nodes.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import PartitionError, SessionError

__all__ = ["Worker", "ShmBuffer"]


class ShmBuffer:
    """An in-memory staging file for one incoming transfer stream.

    VFT receivers append raw chunks here; once a stream completes, the
    buffered bytes are parsed into an R object (numpy array) exactly once —
    mirroring the two-step receive in §3.3.
    """

    def __init__(self, stream_id: str) -> None:
        self.stream_id = stream_id
        self._chunks: list[bytes] = []
        self._lock = threading.Lock()
        self.closed = False

    def append(self, chunk: bytes) -> None:
        with self._lock:
            if self.closed:
                raise PartitionError(f"stream {self.stream_id!r} already closed")
            self._chunks.append(bytes(chunk))

    def close(self) -> bytes:
        """Finish the stream and return the concatenated payload."""
        with self._lock:
            self.closed = True
            return b"".join(self._chunks)


class Worker:
    """One Distributed R worker process group."""

    def __init__(self, index: int, node_index: int, instances: int = 1,
                 memory_limit_bytes: int | None = None) -> None:
        if instances < 1:
            raise SessionError("worker needs at least one R instance")
        self.index = index
        self.node_index = node_index
        self.instances = instances
        self.memory_limit_bytes = memory_limit_bytes
        self._store: dict[tuple[int, int], Any] = {}
        self._partition_bytes: dict[tuple[int, int], int] = {}
        self._shm: dict[str, ShmBuffer] = {}
        self._lock = threading.Lock()
        self._stored_bytes = 0
        self._down = False

    # -- liveness ----------------------------------------------------------

    @property
    def is_down(self) -> bool:
        with self._lock:
            return self._down

    def fail(self) -> None:
        """Kill the worker: stored partitions are lost, and every storage
        or streaming call raises :class:`SessionError` until recovery."""
        with self._lock:
            self._down = True
            self._store.clear()
            self._partition_bytes.clear()
            self._shm.clear()
            self._stored_bytes = 0

    def recover(self) -> None:
        """Bring the worker back (empty — its state died with it)."""
        with self._lock:
            self._down = False

    def _check_up(self) -> None:
        with self._lock:
            down = self._down
        if down:
            raise SessionError(f"worker {self.index} is down")

    # -- partition storage -------------------------------------------------

    def put_partition(self, object_id: int, partition: int, value: Any,
                      nbytes: int) -> None:
        """Store a partition's contents, enforcing the memory limit.

        Distributed R "currently handles only data that fits in the
        aggregate memory of the cluster" (§2) — exceeding the limit raises
        rather than swapping.
        """
        self._check_up()
        with self._lock:
            key = (object_id, partition)
            previous = self._partition_bytes.get(key, 0)
            new_total = self._stored_bytes - previous + nbytes
            if self.memory_limit_bytes is not None and new_total > self.memory_limit_bytes:
                raise MemoryError(
                    f"worker {self.index}: storing partition would use "
                    f"{new_total} bytes, limit is {self.memory_limit_bytes}"
                )
            self._store[key] = value
            self._partition_bytes[key] = nbytes
            self._stored_bytes = new_total

    def get_partition(self, object_id: int, partition: int) -> Any:
        self._check_up()
        with self._lock:
            try:
                return self._store[(object_id, partition)]
            except KeyError:
                raise PartitionError(
                    f"worker {self.index} has no partition {partition} "
                    f"of object {object_id}"
                ) from None

    def drop_object(self, object_id: int) -> None:
        with self._lock:
            keys = [k for k in self._store if k[0] == object_id]
            for key in keys:
                self._store.pop(key)
                self._stored_bytes -= self._partition_bytes.pop(key, 0)

    @property
    def stored_bytes(self) -> int:
        with self._lock:
            return self._stored_bytes

    # -- shm staging for transfers -----------------------------------------------

    def open_stream(self, stream_id: str) -> ShmBuffer:
        self._check_up()
        with self._lock:
            if stream_id in self._shm:
                raise PartitionError(f"stream {stream_id!r} already open")
            buffer = ShmBuffer(stream_id)
            self._shm[stream_id] = buffer
            return buffer

    def close_stream(self, stream_id: str) -> bytes:
        self._check_up()
        with self._lock:
            try:
                buffer = self._shm.pop(stream_id)
            except KeyError:
                raise PartitionError(f"no open stream {stream_id!r}") from None
        return buffer.close()
