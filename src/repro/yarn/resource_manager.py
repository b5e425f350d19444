"""The YARN-style resource manager brokering Vertica and Distributed R.

Usage pattern from §6: Vertica submits once for *long-term* resources
("releasing resources and tearing down a database is costly"); each
Distributed R session submits on start with user-specified cores/memory and
a locality preference toward the database nodes, and releases on shutdown.

The manager is synchronous: :meth:`submit_application` allocates what it can
immediately (honoring the scheduler policy and locality hints) and leaves
the remainder pending; :meth:`release_application` frees resources and
retries the pending queue.  ``wait=True`` turns unsatisfied submissions into
errors so callers can fall back.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from repro.errors import ResourceError
from repro.obs.metrics import MetricsRegistry
from repro.yarn.container import Container
from repro.yarn.scheduler import Scheduler, make_scheduler

__all__ = ["NodeCapacity", "ContainerRequest", "Application", "ResourceManager"]

_APPLICATION_IDS = itertools.count(1)
_REQUEST_SEQUENCE = itertools.count(1)


@dataclass
class NodeCapacity:
    """One machine's resources as seen by the resource manager."""

    cores: int
    memory_bytes: int

    def __post_init__(self) -> None:
        if self.cores < 1 or self.memory_bytes < 1:
            raise ResourceError("node capacity must be positive")


@dataclass
class ContainerRequest:
    """One outstanding ask for a container."""

    application_id: int
    cores: int
    memory_bytes: int
    preferred_node: int | None = None
    sequence: int = field(default_factory=lambda: next(_REQUEST_SEQUENCE))

    def __post_init__(self) -> None:
        if self.cores < 1 or self.memory_bytes < 1:
            raise ResourceError("container request must be positive")


@dataclass
class Application:
    """A framework instance (the database, or one Distributed R session)."""

    application_id: int
    name: str
    queue: str
    containers: list[Container] = field(default_factory=list)
    pending: int = 0

    @property
    def cores_allocated(self) -> int:
        return sum(c.cores for c in self.containers)

    @property
    def memory_allocated(self) -> int:
        return sum(c.memory_bytes for c in self.containers)

    @property
    def is_satisfied(self) -> bool:
        return self.pending == 0

    def locality_fraction(self) -> float:
        """Fraction of containers placed on their preferred node."""
        preferred = [c for c in self.containers if getattr(c, "_preferred_hit", None) is not None]
        if not preferred:
            return 0.0
        hits = sum(1 for c in preferred if c._preferred_hit)
        return hits / len(preferred)


class ResourceManager:
    """Cluster-wide allocator with pluggable scheduling policy."""

    def __init__(self, nodes: list[NodeCapacity], policy: str = "capacity",
                 queue_capacities: dict[str, float] | None = None) -> None:
        if not nodes:
            raise ResourceError("resource manager requires at least one node")
        self.nodes = list(nodes)
        self.metrics = MetricsRegistry()
        self.scheduler: Scheduler = make_scheduler(policy, queue_capacities)
        self._lock = threading.Lock()
        self._free_cores = [n.cores for n in nodes]
        self._free_memory = [n.memory_bytes for n in nodes]
        self._applications: dict[int, Application] = {}
        self._pending: list[ContainerRequest] = []

    # -- introspection -----------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def free_resources(self) -> list[tuple[int, int]]:
        with self._lock:
            return list(zip(self._free_cores, self._free_memory))

    def utilization(self) -> float:
        """Fraction of total cores currently allocated."""
        with self._lock:
            total = sum(n.cores for n in self.nodes)
            free = sum(self._free_cores)
        return (total - free) / total if total else 0.0

    def application(self, application_id: int) -> Application:
        with self._lock:
            try:
                return self._applications[application_id]
            except KeyError:
                raise ResourceError(f"no application {application_id}") from None

    def pending_requests(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- submission / release -------------------------------------------------

    def submit_application(
        self,
        name: str,
        container_requests: list[dict],
        queue: str = "default",
        require_all: bool = False,
    ) -> Application:
        """Register an application and try to allocate its containers.

        Each request dict has ``cores``, ``memory_bytes``, and optional
        ``preferred_node``.  With ``require_all=True`` an unsatisfiable
        submission is rolled back and raises :class:`ResourceError`.
        """
        app = Application(
            application_id=next(_APPLICATION_IDS), name=name, queue=queue
        )
        requests = [
            ContainerRequest(
                application_id=app.application_id,
                cores=int(spec.get("cores", 1)),
                memory_bytes=int(spec.get("memory_bytes", 1 << 30)),
                preferred_node=spec.get("preferred_node"),
            )
            for spec in container_requests
        ]
        with self._lock:
            self._applications[app.application_id] = app
            self._pending.extend(requests)
            app.pending = len(requests)
            self._allocate_pending_locked()
            if require_all and not app.is_satisfied:
                self._rollback_locked(app)
                raise ResourceError(
                    f"cannot satisfy all {len(requests)} containers for "
                    f"{name!r} (free: {list(zip(self._free_cores, self._free_memory))})"
                )
        return app

    def release_application(self, app: Application) -> None:
        """Free the application's containers and retry the pending queue."""
        with self._lock:
            stored = self._applications.pop(app.application_id, None)
            if stored is None:
                raise ResourceError(f"application {app.application_id} is not registered")
            for container in stored.containers:
                self._free_cores[container.node_index] += container.cores
                self._free_memory[container.node_index] += container.memory_bytes
                container.release()
                self.metrics.counter("yarn_containers_released").add()
            stored.containers.clear()
            self._pending = [
                r for r in self._pending if r.application_id != app.application_id
            ]
            self._allocate_pending_locked()

    # -- allocation engine ---------------------------------------------------------

    def _allocate_pending_locked(self) -> None:
        progressed = True
        while progressed and self._pending:
            progressed = False
            ordered = self.scheduler.order(self._pending, self._applications)
            for request in ordered:
                node = self._place_locked(request)
                if node is None:
                    continue
                app = self._applications[request.application_id]
                container = Container(
                    node_index=node,
                    cores=request.cores,
                    memory_bytes=request.memory_bytes,
                    application_id=app.application_id,
                )
                container._preferred_hit = (
                    None if request.preferred_node is None
                    else node == request.preferred_node
                )
                container.start()
                # Instrument locks are leaves: acquired under the
                # manager lock, never the other way around.
                self.metrics.counter("yarn_containers_granted").add()
                app.containers.append(container)
                app.pending -= 1
                self._free_cores[node] -= request.cores
                self._free_memory[node] -= request.memory_bytes
                self._pending.remove(request)
                progressed = True
                break  # re-order after every grant (shares changed)

    def _place_locked(self, request: ContainerRequest) -> int | None:
        """Pick a node: the preferred one if it fits, else the freest fit."""

        def fits(node: int) -> bool:
            return (
                self._free_cores[node] >= request.cores
                and self._free_memory[node] >= request.memory_bytes
            )

        if request.preferred_node is not None:
            preferred = request.preferred_node % self.node_count
            if fits(preferred):
                return preferred
        candidates = [n for n in range(self.node_count) if fits(n)]
        if not candidates:
            return None
        return max(candidates, key=lambda n: (self._free_cores[n], -n))

    def _rollback_locked(self, app: Application) -> None:
        for container in app.containers:
            self._free_cores[container.node_index] += container.cores
            self._free_memory[container.node_index] += container.memory_bytes
            container.release()
            self.metrics.counter("yarn_containers_released").add()
        app.containers.clear()
        self._pending = [
            r for r in self._pending if r.application_id != app.application_id
        ]
        self._applications.pop(app.application_id, None)
