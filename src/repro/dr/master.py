"""The Distributed R master: symbol table and memory manager.

"The memory manager is located on the master node. The memory manager
tracks the location and meta-data of each partition" (§4, Figure 9).
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING

from repro.errors import SessionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dr.dobject import DistributedObject
    from repro.dr.session import DRSession

__all__ = ["Master"]


class Master:
    """Master-side bookkeeping for one session."""

    def __init__(self, session: "DRSession") -> None:
        self._session_ref = weakref.ref(session)
        self._lock = threading.Lock()
        self._objects: dict[int, weakref.ReferenceType] = {}

    def register(self, obj: "DistributedObject") -> None:
        with self._lock:
            self._objects[obj.object_id] = weakref.ref(obj)

    def live_objects(self) -> list["DistributedObject"]:
        with self._lock:
            refs = list(self._objects.values())
        return [obj for obj in (ref() for ref in refs) if obj is not None]

    def partition_map(self) -> dict[int, list[tuple[int, int]]]:
        """object_id -> [(partition index, worker index), ...] for live objects."""
        return {
            obj.object_id: [
                (p.index, p.worker_index) for p in obj.partitions
            ]
            for obj in self.live_objects()
        }

    def handle_worker_failure(self, dead: int, survivor: int) -> int:
        """Reassign every live object's partitions off a dead worker.

        Partition *metadata* survives on the master (§4's memory manager);
        the contents are gone, so moved partitions come back unfilled and
        re-executed tasks refill them on the survivor.  Returns the number
        of partitions moved.
        """
        moved = 0
        for obj in self.live_objects():
            moved += obj.reassign_worker(dead, survivor)
        return moved

    def memory_usage(self) -> dict[int, int]:
        """Bytes stored per worker, as tracked by the workers themselves."""
        session = self._session_ref()
        if session is None:
            raise SessionError("session has been destroyed")
        return {worker.index: worker.stored_bytes for worker in session.workers}

    def total_bytes(self) -> int:
        return sum(self.memory_usage().values())
