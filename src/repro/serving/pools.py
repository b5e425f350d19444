"""Named resource pools: bounded concurrency with admission control.

Each pool runs admitted statements on its own worker thread pool.  A
statement is *admitted* when a worker picks it up; until then it sits in a
bounded queue.  Admission control is two rejections deep:

* **queue full** — a submit that would exceed ``queue_depth`` waiting
  statements is refused immediately;
* **admission timeout** — a queued statement that no worker picks up
  within ``admission_timeout_seconds`` is cancelled and refused (once a
  worker has started it, it runs to completion — the timeout bounds
  *waiting*, never aborts work in flight).

Both raise :class:`~repro.errors.AdmissionError` and count
``statements_rejected``; the wait of every admitted statement lands in the
``admission_queue_seconds`` histogram.

A pool's concurrency either is set explicitly (``max_concurrency``) or is
derived from a memory budget: ``memory_budget_bytes`` divided by the
per-statement working-set estimate ``statement_memory_bytes`` — the same
arithmetic Vertica's resource manager applies to plan admission.  The
:class:`~repro.serving.server.Server` reserves budgeted pools' memory as
YARN containers so the database and Distributed R sessions draw from one
arbiter.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import AdmissionError, ServingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry

__all__ = ["PoolConfig", "ResourcePool", "AdmissionTicket"]

DEFAULT_STATEMENT_MEMORY = 64 * 1024 * 1024


@dataclass(frozen=True)
class PoolConfig:
    """Static description of one named resource pool."""

    name: str
    max_concurrency: int | None = None
    queue_depth: int = 16
    admission_timeout_seconds: float = 5.0
    memory_budget_bytes: int | None = None
    statement_memory_bytes: int = DEFAULT_STATEMENT_MEMORY

    def __post_init__(self) -> None:
        if not self.name:
            raise ServingError("resource pool requires a name")
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ServingError(
                f"pool {self.name!r}: max_concurrency must be >= 1")
        if self.queue_depth < 0:
            raise ServingError(f"pool {self.name!r}: queue_depth must be >= 0")
        if self.admission_timeout_seconds <= 0:
            raise ServingError(
                f"pool {self.name!r}: admission timeout must be positive")
        if self.statement_memory_bytes < 1:
            raise ServingError(
                f"pool {self.name!r}: statement_memory_bytes must be >= 1")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ServingError(
                f"pool {self.name!r}: memory budget must be >= 1")

    @property
    def concurrency(self) -> int:
        """Execution slots: explicit, or derived from the memory budget."""
        if self.max_concurrency is not None:
            return self.max_concurrency
        if self.memory_budget_bytes is not None:
            return max(1, self.memory_budget_bytes // self.statement_memory_bytes)
        return 8


class AdmissionTicket:
    """Handle for one submitted statement: its future plus a started flag."""

    def __init__(self, future: "Future[Any]", submitted_at: float) -> None:
        self.future = future
        self.submitted_at = submitted_at
        self.started = threading.Event()


class ResourcePool:
    """One named pool: a worker thread pool behind a bounded queue."""

    def __init__(self, config: PoolConfig, metrics: "MetricsRegistry") -> None:
        self.config = config
        self.rejected = metrics.counter("statements_rejected")
        self.queue_seconds = metrics.histogram("admission_queue_seconds")
        self._lock = threading.Lock()
        self._queued = 0
        self._running = 0
        self._closed = False
        self._workers = ThreadPoolExecutor(
            max_workers=config.concurrency,
            thread_name_prefix=f"serving-{config.name}",
        )

    # -- introspection ----------------------------------------------------

    @property
    def queued(self) -> int:
        with self._lock:
            return self._queued

    @property
    def running(self) -> int:
        with self._lock:
            return self._running

    # -- admission --------------------------------------------------------

    def submit(self, fn: Callable[[], Any]) -> AdmissionTicket:
        """Queue ``fn`` for execution; raises on a full queue.

        ``fn`` runs on a pool worker.  The returned ticket's ``started``
        event is set by the worker the moment it claims the statement;
        callers use it with :meth:`await_admission` to implement the
        admission timeout.
        """
        with self._lock:
            if self._closed:
                raise ServingError(f"pool {self.config.name!r} is closed")
            if self._queued >= self.config.queue_depth:
                self.rejected.add()
                raise AdmissionError(
                    f"pool {self.config.name!r} queue is full "
                    f"({self._queued} waiting, depth {self.config.queue_depth})"
                )
            self._queued += 1
        ticket = AdmissionTicket(Future(), time.perf_counter())

        def run() -> Any:
            with self._lock:
                self._queued -= 1
                self._running += 1
            ticket.started.set()
            self.queue_seconds.observe(time.perf_counter() - ticket.submitted_at)
            try:
                return fn()
            finally:
                with self._lock:
                    self._running -= 1

        try:
            ticket.future = self._workers.submit(run)
        except RuntimeError:
            with self._lock:
                self._queued -= 1
            raise ServingError(f"pool {self.config.name!r} is shut down") from None
        return ticket

    def await_admission(self, ticket: AdmissionTicket) -> float:
        """Block until a worker claims the ticket; returns the queue wait.

        On timeout the statement is cancelled if (and only if) it is still
        queued — a statement a worker already claimed runs to completion
        and its wait is returned as usual.
        """
        timeout = self.config.admission_timeout_seconds
        if ticket.started.wait(timeout):
            return time.perf_counter() - ticket.submitted_at
        if ticket.future.cancel():
            # Never started: undo the queue accounting and reject.
            with self._lock:
                self._queued -= 1
            self.rejected.add()
            raise AdmissionError(
                f"pool {self.config.name!r}: no execution slot within "
                f"{timeout:g}s (concurrency {self.config.concurrency}, "
                f"{self.queued} still waiting)"
            )
        # Lost the race with a worker: the statement is running.
        ticket.started.wait()
        return time.perf_counter() - ticket.submitted_at

    # -- lifecycle --------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
        self._workers.shutdown(wait=wait)
