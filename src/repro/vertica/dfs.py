"""Vertica's internal distributed file system (DFS).

The paper stores serialized R models here rather than in tables: "models are
stored as binary blobs in Vertica's distributed file system … The DFS can
replicate files across nodes to ensure that they are available at all nodes"
(§5).  This module reproduces those semantics: named blobs, per-node replica
placement, checksums, reads that survive node failures, and the same
fault-tolerance guarantee as tables (data is available while at least one
replica's node is up).
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import DfsError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

__all__ = ["DistributedFileSystem", "DfsFileInfo"]


@dataclass
class DfsFileInfo:
    """Metadata for one DFS file."""

    path: str
    size: int
    checksum: int
    replica_nodes: tuple[int, ...]
    version: int = 1
    attributes: dict[str, str] = field(default_factory=dict)


class DistributedFileSystem:
    """Replicated blob store spanning the cluster's nodes."""

    def __init__(self, node_count: int, replication: int = 2) -> None:
        if node_count < 1:
            raise DfsError("DFS requires at least one node")
        if replication < 1:
            raise DfsError("replication factor must be >= 1")
        self.node_count = node_count
        self.replication = min(replication, node_count)
        self._lock = threading.Lock()
        # blobs[node][path] -> bytes
        self._blobs: list[dict[str, bytes]] = [{} for _ in range(node_count)]
        self._meta: dict[str, DfsFileInfo] = {}
        self._down: set[int] = set()
        self._placement_cursor = 0
        # Wired up by the owning cluster so read-repair events surface
        # through the shared observability pipeline (None standalone).
        self.metrics: "MetricsRegistry | None" = None
        self.tracer: "Tracer | None" = None
        self.faults: "FaultPlan | None" = None

    # -- failure injection -------------------------------------------------

    def fail_node(self, node: int) -> None:
        """Mark a node as down; its replicas become unreadable."""
        self._check_node(node)
        with self._lock:
            self._down.add(node)

    def recover_node(self, node: int) -> None:
        """Bring a failed node back and repair its replica set.

        Deletes and overwrites that happened while the node was down never
        reached it, so recovery must reconcile: orphaned blobs (path no
        longer in the catalog) and stale versions (checksum mismatch) are
        dropped, and files left under-replicated by writes during the
        outage are re-replicated onto this node from a checksum-correct
        peer.  After this returns, :meth:`total_bytes` again reflects
        exactly ``replication`` copies of every live file (node capacity
        permitting).
        """
        self._check_node(node)
        with self._lock:
            self._down.discard(node)
            self._repair_node_locked(node)

    def _repair_node_locked(self, node: int) -> None:
        """Reconcile one recovered node's blobs; caller holds ``_lock``."""
        blobs = self._blobs[node]
        for path in list(blobs):
            info = self._meta.get(path)
            if (info is None or node not in info.replica_nodes
                    or zlib.crc32(blobs[path]) != info.checksum):
                del blobs[path]
        for path, info in self._meta.items():
            if node in info.replica_nodes:
                continue
            if len(info.replica_nodes) >= self.replication:
                continue
            for peer in info.replica_nodes:
                if peer in self._down:
                    continue
                data = self._blobs[peer].get(path)
                if data is not None and zlib.crc32(data) == info.checksum:
                    blobs[path] = data
                    info.replica_nodes = info.replica_nodes + (node,)
                    break

    def lose_replica(self, path: str, node: int | None = None) -> int:
        """Drop one replica's bytes (the node stays up) — a lost/evicted
        blob, as injected by :data:`FaultKind.BLOB_LOSS`.  Returns the node
        that lost its copy; the next :meth:`read` heals it by read-repair.
        """
        with self._lock:
            info = self._meta.get(path)
            if info is None:
                raise DfsError(f"DFS file not found: {path!r}")
            candidates = (node,) if node is not None else info.replica_nodes
            for candidate in candidates:
                if self._blobs[candidate].pop(path, None) is not None:
                    return candidate
        raise DfsError(f"no replica of {path!r} holds bytes to lose")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.node_count:
            raise DfsError(f"node {node} out of range (cluster has {self.node_count})")

    # -- file operations -----------------------------------------------------

    def write(self, path: str, data: bytes, attributes: dict[str, str] | None = None,
              overwrite: bool = False) -> DfsFileInfo:
        """Store ``data`` under ``path``, replicated across live nodes."""
        if not path or path.startswith("/") is False and "//" in path:
            raise DfsError(f"invalid DFS path: {path!r}")
        if not isinstance(data, (bytes, bytearray)):
            raise DfsError("DFS stores bytes; serialize the object first")
        data = bytes(data)
        with self._lock:
            if path in self._meta and not overwrite:
                raise DfsError(f"DFS file already exists: {path!r}")
            live = [n for n in range(self.node_count) if n not in self._down]
            if len(live) < 1:
                raise DfsError("no live nodes to store the file")
            replicas = self._choose_replicas_locked(live)
            version = self._meta[path].version + 1 if path in self._meta else 1
            # Remove stale replicas from a previous version.  Down nodes
            # can't process the removal; their stale copies are reconciled
            # by the repair scan in recover_node.
            if path in self._meta:
                for node in self._meta[path].replica_nodes:
                    if node not in self._down:
                        self._blobs[node].pop(path, None)
            for node in replicas:
                self._blobs[node][path] = data
            info = DfsFileInfo(
                path=path,
                size=len(data),
                checksum=zlib.crc32(data),
                replica_nodes=tuple(replicas),
                version=version,
                attributes=dict(attributes or {}),
            )
            self._meta[path] = info
            return info

    def _choose_replicas_locked(self, live: list[int]) -> list[int]:
        """Round-robin placement across live nodes; caller holds ``_lock``."""
        count = min(self.replication, len(live))
        start = self._placement_cursor % len(live)
        self._placement_cursor += 1
        return [live[(start + i) % len(live)] for i in range(count)]

    def read(self, path: str, from_node: int | None = None) -> bytes:
        """Read a file, transparently falling over to a live replica.

        A read that touches a degraded replica set — a down node, a blob
        lost from any live replica node, or a checksum-corrupt copy —
        triggers *read-repair*: the
        first intact copy found is rewritten onto every reachable replica
        node and, if the file is still under-replicated, onto fresh live
        nodes.  Repairs count ``dfs_read_repairs`` and emit a
        ``fault.recovered`` span when the cluster has wired its metrics and
        tracer in.
        """
        faults = self.faults
        if faults is not None:
            # Before _lock: a BLOB_LOSS effect re-enters the DFS.
            faults.perturb("dfs.read", path=path)
        restored = 0
        with self._lock:
            info = self._meta.get(path)
            if info is None:
                raise DfsError(f"DFS file not found: {path!r}")
            candidates = list(info.replica_nodes)
            if from_node is not None and from_node in candidates:
                # Prefer the local replica when the caller runs on that node.
                candidates.remove(from_node)
                candidates.insert(0, from_node)
            data = None
            degraded = False
            corrupt = False
            for node in candidates:
                if node in self._down:
                    degraded = True
                    continue
                blob = self._blobs[node].get(path)
                if blob is None:
                    degraded = True
                    continue
                if zlib.crc32(blob) != info.checksum:
                    degraded = True
                    corrupt = True
                    continue
                data = blob
                break
            if data is None:
                if corrupt:
                    raise DfsError(
                        f"checksum mismatch reading {path!r}: no intact replica"
                    )
                raise DfsError(
                    f"all replicas of {path!r} are on failed nodes "
                    f"{info.replica_nodes}"
                )
            # A lost copy past the one read degrades the set too: a reader
            # that prefers an intact local copy must not leave the file
            # under-replicated for good.
            degraded = degraded or any(
                path not in self._blobs[node]
                for node in candidates if node not in self._down)
            if degraded:
                restored = self._read_repair_locked(path, info, data)
        if restored:
            if self.metrics is not None:
                self.metrics.counter("dfs_read_repairs").add()
            if self.tracer is not None:
                with self.tracer.span("fault.recovered",
                                      mechanism="read_repair",
                                      path=path, restored=restored):
                    pass
        return data

    def _read_repair_locked(self, path: str, info: DfsFileInfo,
                            data: bytes) -> int:
        """Heal a degraded replica set from one intact copy.

        Lost or corrupt copies on live replica nodes are rewritten in
        place; if down nodes leave the file with fewer than ``replication``
        reachable copies, fresh live nodes are recruited.  Caller holds
        ``_lock``.  Returns the number of copies restored.
        """
        restored = 0
        live_good = 0
        for node in info.replica_nodes:
            if node in self._down:
                continue
            blob = self._blobs[node].get(path)
            if blob is None or zlib.crc32(blob) != info.checksum:
                self._blobs[node][path] = data
                restored += 1
            live_good += 1
        if live_good < self.replication:
            fresh = [
                n for n in range(self.node_count)
                if n not in self._down and n not in info.replica_nodes
            ]
            for node in fresh[:self.replication - live_good]:
                self._blobs[node][path] = data
                info.replica_nodes = info.replica_nodes + (node,)
                restored += 1
        return restored

    def stat(self, path: str) -> DfsFileInfo:
        with self._lock:
            info = self._meta.get(path)
        if info is None:
            raise DfsError(f"DFS file not found: {path!r}")
        return info

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._meta

    def delete(self, path: str) -> None:
        """Drop a file from the catalog and every reachable replica.

        Replicas on failed nodes cannot process the delete; they become
        orphans that :meth:`recover_node`'s repair scan removes.
        """
        with self._lock:
            info = self._meta.pop(path, None)
            if info is None:
                raise DfsError(f"DFS file not found: {path!r}")
            for node in info.replica_nodes:
                if node not in self._down:
                    self._blobs[node].pop(path, None)

    def list_files(self, prefix: str = "") -> list[DfsFileInfo]:
        with self._lock:
            return sorted(
                (info for path, info in self._meta.items() if path.startswith(prefix)),
                key=lambda info: info.path,
            )

    def total_bytes(self) -> int:
        """Physical bytes across all replicas (replication included)."""
        with self._lock:
            return sum(len(d) for node in self._blobs for d in node.values())
