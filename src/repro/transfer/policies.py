"""Data distribution policies for Vertica Fast Transfer (§3.2).

A policy answers one question per outgoing chunk: *which Distributed R
worker receives it?*

* :class:`LocalityPreserving` (Figure 5) — one-to-one mapping between
  database nodes and workers: everything node *i* holds goes to worker *i*.
  Partition sizes then mirror the table's segmentation (skew included).
* :class:`UniformDistribution` (Figure 6) — each UDF instance sprinkles its
  chunks round-robin over *all* workers, so every worker ends up with
  roughly the same amount of data regardless of segmentation skew, and the
  policy works for any ratio of database nodes to workers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TransferError
from repro.vertica.table import DEFAULT_ROWGROUP_ROWS

__all__ = ["TransferPolicy", "LocalityPreserving", "UniformDistribution", "get_policy"]


class TransferPolicy:
    """Strategy mapping outgoing chunks to receiving workers."""

    name = "abstract"

    def validate(self, db_node_count: int, worker_count: int) -> None:
        """Check the policy applies to this topology (may raise)."""

    def target_worker(self, db_node: int, instance_index: int, chunk_index: int,
                      worker_count: int) -> int:
        """Worker index that receives this chunk."""
        raise NotImplementedError

    def partition_count(self, db_node_count: int, worker_count: int) -> int:
        """How many darray partitions the load produces."""
        raise NotImplementedError

    def default_chunk_rows(self, total_rows: int, instances: int) -> int:
        """The partition-size hint a load uses when its caller gives none."""
        raise NotImplementedError

    def partition_for_worker(self, worker: int) -> int:
        """Which partition a worker's received data fills (1:1 for both
        built-in policies)."""
        return worker


class LocalityPreserving(TransferPolicy):
    """Figure 5: database node *i* streams only to worker *i*."""

    name = "locality"

    def validate(self, db_node_count: int, worker_count: int) -> None:
        if db_node_count != worker_count:
            raise TransferError(
                "the locality-preserving policy requires equal node counts: "
                f"{db_node_count} database nodes vs {worker_count} workers "
                "(use the uniform policy otherwise)"
            )

    def target_worker(self, db_node: int, instance_index: int, chunk_index: int,
                      worker_count: int) -> int:
        return db_node

    def partition_count(self, db_node_count: int, worker_count: int) -> int:
        return db_node_count

    def default_chunk_rows(self, total_rows: int, instances: int) -> int:
        # Every frame of node i lands on worker i, so frame boundaries never
        # change a partition.  One stored row group per frame lets VFT ship
        # the row group's blocks as stored.
        return DEFAULT_ROWGROUP_ROWS


class UniformDistribution(TransferPolicy):
    """Figure 6: each UDF instance round-robins chunks over all workers."""

    name = "uniform"

    def target_worker(self, db_node: int, instance_index: int, chunk_index: int,
                      worker_count: int) -> int:
        # Offset by the (globally unique) instance index so concurrent
        # senders interleave rather than all starting at worker 0.
        return (instance_index + chunk_index) % worker_count

    def partition_count(self, db_node_count: int, worker_count: int) -> int:
        return worker_count

    def default_chunk_rows(self, total_rows: int, instances: int) -> int:
        # Frames are the unit of distribution: the paper's hint, table rows
        # over receiving R instances, bounded to keep frames reasonably
        # sized.
        return int(np.clip(total_rows // max(instances, 1) or 1, 1_024, 262_144))


_POLICIES = {
    LocalityPreserving.name: LocalityPreserving,
    UniformDistribution.name: UniformDistribution,
}


def get_policy(name: str) -> TransferPolicy:
    """Resolve a policy by name (``"locality"`` or ``"uniform"``)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise TransferError(
            f"unknown transfer policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
