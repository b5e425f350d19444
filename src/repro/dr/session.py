"""Distributed R sessions.

:func:`start_session` is the analog of the paper's ``distributedR_start()``
(Figure 3, line 3): it brings up a master plus a set of workers — one per
(simulated) machine, each hosting ``instances_per_node`` R instances — and
exposes constructors for the distributed data structures of Table 1.

Sessions can optionally acquire their resources through the YARN resource
manager (§6): pass ``yarn=`` and the session requests one container per
worker, with locality preference for the co-located database nodes, and
releases them on shutdown.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.dr.darray import DArray
from repro.dr.dframe import DFrame
from repro.dr.dlist import DList
from repro.dr.master import Master
from repro.dr.worker import Worker
from repro.errors import SessionError
from repro.faults.plan import FaultPlan, InjectedFault
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.yarn.resource_manager import ResourceManager

__all__ = ["DRSession", "start_session"]


class DRSession:
    """A running Distributed R cluster (master + workers)."""

    def __init__(
        self,
        node_count: int = 4,
        instances_per_node: int = 2,
        memory_limit_per_worker: int | None = None,
        node_offset: int = 0,
        yarn: "ResourceManager | None" = None,
        yarn_memory_per_worker: int = 2 * 2**30,
    ) -> None:
        if node_count < 1:
            raise SessionError("session requires at least one worker node")
        if instances_per_node < 1:
            raise SessionError("each worker needs at least one R instance")
        self.instances_per_node = instances_per_node
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.faults: FaultPlan | None = None
        #: Re-executions allowed per task after a worker failure (YARN-style
        #: worker churn tolerance: a dead worker's tasks rerun on a survivor).
        self.task_retries = 2
        self._lock = threading.Lock()
        self._closed = False
        self._yarn = yarn
        self._yarn_app = None
        if yarn is not None:
            # Request one container per worker, preferring co-location with
            # the database nodes the workers will pull segments from.
            with self.tracer.span("yarn.allocate",
                                  containers=node_count) as span:
                self._yarn_app = yarn.submit_application(
                    name="distributed-r-session",
                    container_requests=[
                        {
                            "cores": instances_per_node,
                            "memory_bytes": yarn_memory_per_worker,
                            "preferred_node": node_offset + i,
                        }
                        for i in range(node_count)
                    ],
                )
                span.set(granted=len(self._yarn_app.containers),
                         pending=self._yarn_app.pending)
        self.workers = [
            Worker(
                index=i,
                node_index=node_offset + i,
                instances=instances_per_node,
                memory_limit_bytes=memory_limit_per_worker,
            )
            for i in range(node_count)
        ]
        self.master = Master(self)
        total_instances = node_count * instances_per_node
        self._pool = ThreadPoolExecutor(
            max_workers=total_instances, thread_name_prefix="dr-instance"
        )
        # Per-worker concurrency: a worker can run at most `instances` tasks.
        self._worker_slots = [
            threading.BoundedSemaphore(instances_per_node) for _ in range(node_count)
        ]

    # -- data structure constructors (Table 1) -----------------------------------

    def darray(self, npartitions: int,
               worker_assignment: Sequence[int] | None = None) -> DArray:
        """``darray(npartitions=)``."""
        self._check_open()
        return DArray(self, npartitions, worker_assignment)

    def dframe(self, npartitions: int,
               worker_assignment: Sequence[int] | None = None) -> DFrame:
        """``dframe(npartitions=)``."""
        self._check_open()
        return DFrame(self, npartitions, worker_assignment)

    def dlist(self, npartitions: int,
              worker_assignment: Sequence[int] | None = None) -> DList:
        """``dlist(npartitions=)``."""
        self._check_open()
        return DList(self, npartitions, worker_assignment)

    # -- execution -------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.workers)

    @property
    def total_instances(self) -> int:
        return sum(worker.instances for worker in self.workers)

    def run_partition_tasks(
        self, tasks: list[tuple[int, Callable, int]]
    ) -> list[Any]:
        """Run ``(worker_index, fn, partition_index)`` tasks in parallel.

        This is the ``foreach`` execution engine: tasks are dispatched to the
        instance pool but each worker admits at most ``instances_per_node``
        concurrent tasks (an R instance runs one task at a time).  Results
        come back in task order; the first raised exception propagates.
        """
        self._check_open()
        # Pool threads don't inherit the ambient span; capture the caller's
        # span here so every dr.task attaches to the tree that dispatched it
        # (a vft.transfer, an algorithm iteration, a prediction query).
        parent = self.tracer.current()

        def run(worker_index: int, fn: Callable, partition_index: int) -> Any:
            attempt = 0
            current = worker_index
            while True:
                try:
                    if self.workers[current].is_down:
                        raise SessionError(f"worker {current} is down")
                    slot = self._worker_slots[current]
                    with slot:
                        with self.tracer.span("dr.task", parent=parent,
                                              worker=current,
                                              partition=partition_index):
                            if self.faults is not None:
                                self.faults.perturb("dr.task", worker=current,
                                                    partition=partition_index)
                            return fn(partition_index)
                except (SessionError, InjectedFault):
                    # The worker died (injected mid-task or detected on
                    # dispatch).  Re-execute on a survivor: the master
                    # reassigns the dead worker's partitions (idempotent
                    # writes make the rerun safe), matching YARN-era worker
                    # churn recovery.
                    attempt += 1
                    survivor = self._survivor_for(current)
                    if attempt > self.task_retries or survivor is None:
                        raise
                    self.master.handle_worker_failure(current, survivor)
                    self.metrics.counter("tasks_reexecuted").add()
                    with self.tracer.span("fault.recovered", parent=parent,
                                          mechanism="task_reexecution",
                                          partition=partition_index,
                                          dead_worker=current,
                                          survivor=survivor):
                        pass
                    current = survivor

        futures = [
            self._pool.submit(run, worker_index, fn, partition_index)
            for worker_index, fn, partition_index in tasks
        ]
        self.metrics.counter("dr_tasks").add(len(futures))
        return [future.result() for future in futures]

    def _survivor_for(self, dead: int) -> int | None:
        """The next live worker after ``dead``, or None if all are down."""
        count = len(self.workers)
        for step in range(1, count):
            candidate = (dead + step) % count
            if not self.workers[candidate].is_down:
                return candidate
        return None

    def install_fault_plan(self, plan: FaultPlan) -> None:
        """Arm a fault plan on this session (``dr.task`` injection site)."""
        plan.bind_session(self)
        with self._lock:
            self.faults = plan

    def clear_fault_plan(self) -> None:
        with self._lock:
            self.faults = None

    def foreach(self, indices: Sequence[int], fn: Callable,
                worker_for: Callable[[int], int] | None = None) -> list[Any]:
        """Paper-style ``foreach(i, 1:n, f)``: run ``fn(i)`` for each index.

        ``worker_for`` maps an index to the worker that should run it
        (defaults to round-robin).
        """
        def round_robin(i: int) -> int:
            return i % self.node_count

        mapper = worker_for if worker_for is not None else round_robin
        return self.run_partition_tasks([(mapper(i), fn, i) for i in indices])

    # -- lifecycle -----------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the session, releasing YARN containers if any were held."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)
        if self._yarn is not None and self._yarn_app is not None:
            with self.tracer.span(
                "yarn.release",
                containers=len(self._yarn_app.containers),
            ):
                self._yarn.release_application(self._yarn_app)

    def _check_open(self) -> None:
        with self._lock:
            closed = self._closed
        if closed:
            raise SessionError("session has been shut down")

    def __enter__(self) -> "DRSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def start_session(
    node_count: int = 4,
    instances_per_node: int = 2,
    memory_limit_per_worker: int | None = None,
    node_offset: int = 0,
    yarn: "ResourceManager | None" = None,
) -> DRSession:
    """``distributedR_start()``: bring up a Distributed R session."""
    return DRSession(
        node_count=node_count,
        instances_per_node=instances_per_node,
        memory_limit_per_worker=memory_limit_per_worker,
        node_offset=node_offset,
        yarn=yarn,
    )
