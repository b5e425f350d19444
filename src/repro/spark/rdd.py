"""A small RDD engine: lazy, lineage-based, partitioned collections.

Implements the slice of Spark's model the paper's comparison needs:
``map``/``mapPartitions``/``filter`` transformations build a lineage chain
that is only computed when an action (``collect``/``reduce``/``count``)
runs; ``cache()`` pins computed partitions in executor memory so iterative
algorithms (K-means) pay the load cost once — the property that makes
"Spark … an order of magnitude faster" than MapReduce (§7.3.2).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError

__all__ = ["RDD"]


class RDD:
    """A resilient distributed dataset over in-process partitions."""

    def __init__(
        self,
        context,
        compute: Callable[[int], list],
        npartitions: int,
        preferred_nodes: Sequence[int] | None = None,
        parent: "RDD | None" = None,
    ) -> None:
        if npartitions < 1:
            raise ExecutionError("RDD needs at least one partition")
        self.context = context
        self._compute = compute
        self._npartitions = npartitions
        self._preferred_nodes = list(preferred_nodes) if preferred_nodes else None
        self._parent = parent
        self._cached: dict[int, list] | None = None
        self._cache_lock = threading.Lock()

    # -- structure --------------------------------------------------------------

    @property
    def npartitions(self) -> int:
        return self._npartitions

    def preferred_node(self, partition: int) -> int | None:
        if self._preferred_nodes is not None:
            return self._preferred_nodes[partition]
        if self._parent is not None:
            return self._parent.preferred_node(partition)
        return None

    # -- transformations (lazy) ------------------------------------------------------

    def map_partitions(self, fn: Callable[[list], list]) -> "RDD":
        """Apply ``fn`` to each partition's items, lazily."""

        def compute(partition: int) -> list:
            return list(fn(self._materialize(partition)))

        return RDD(self.context, compute, self._npartitions, parent=self)

    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map_partitions(lambda items: [fn(item) for item in items])

    def filter(self, predicate: Callable[[Any], bool]) -> "RDD":
        return self.map_partitions(
            lambda items: [item for item in items if predicate(item)]
        )

    def cache(self) -> "RDD":
        """Pin this RDD's computed partitions in memory."""
        with self._cache_lock:
            if self._cached is None:
                self._cached = {}
        return self

    def unpersist(self) -> "RDD":
        with self._cache_lock:
            self._cached = None
        return self

    # -- actions (eager) -----------------------------------------------------------

    def collect(self) -> list:
        """All items, partition order preserved."""
        parts = self._compute_all()
        return [item for part in parts for item in part]

    def count(self) -> int:
        return sum(len(part) for part in self._compute_all())

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        """Tree-reduce: per-partition fold, then fold of partials."""
        partials = []
        for part in self._compute_all():
            if not part:
                continue
            accumulator = part[0]
            for item in part[1:]:
                accumulator = fn(accumulator, item)
            partials.append(accumulator)
        if not partials:
            raise ExecutionError("reduce of an empty RDD")
        result = partials[0]
        for partial in partials[1:]:
            result = fn(result, partial)
        return result

    def aggregate_partitions(self, fn: Callable[[int, list], Any]) -> list:
        """Run ``fn(partition_index, items)`` per partition (one result each).

        The building block the MLlib-style algorithms use for per-iteration
        partial aggregation.
        """
        def run(partition: int):
            return fn(partition, self._materialize(partition))

        return self.context.run_tasks(
            [(self.preferred_node(i), run, i) for i in range(self._npartitions)]
        )

    # -- computation engine ----------------------------------------------------------

    def _materialize(self, partition: int) -> list:
        with self._cache_lock:
            cached = self._cached
        if cached is not None:
            hit = cached.get(partition)
            if hit is not None:
                self.context.metrics.counter("rdd_cache_hits").add()
                return hit
        items = self._compute(partition)
        if cached is not None:
            with self._cache_lock:
                if self._cached is not None:
                    self._cached[partition] = items
        self.context.metrics.counter("rdd_partitions_computed").add()
        return items

    def _compute_all(self) -> list[list]:
        def run(partition: int):
            return self._materialize(partition)

        return self.context.run_tasks(
            [(self.preferred_node(i), run, i) for i in range(self._npartitions)]
        )
