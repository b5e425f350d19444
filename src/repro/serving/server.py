"""The serving front door: sessions over pooled, cached execution.

A :class:`Server` fronts one cluster.  Clients open :class:`Session`
handles bound to a named resource pool and push SQL through
:meth:`Session.execute`; every statement flows

``plan cache → result cache (SELECTs) → admission → pool worker → executor``

with ``serve.admit`` spanning the queue wait on the client thread and
``serve.execute`` spanning the run on the worker (the familiar ``query``
span nests inside it, so profile trees and the ``queries_executed`` /
``query_seconds`` instruments read the same whether a statement came
through the server or through ``VerticaCluster.sql``).  A result-cache hit
skips admission entirely — that is the point of the cache: under heavy
read traffic the pool only sees each distinct (plan, epoch-state) once.

Pools that declare a memory budget reserve it up front as a YARN container
(application ``serving.<pool>``) so serving capacity and Distributed R
sessions draw from the same arbiter; the reservation is released by
:meth:`Server.close`.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.errors import ServingError
from repro.serving.cache import (
    PlanCache,
    PreparedStatement,
    ResultCache,
    is_cacheable,
    result_cache_key,
)
from repro.serving.pools import PoolConfig, ResourcePool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster
    from repro.vertica.executor import ResultSet
    from repro.yarn.resource_manager import Application, ResourceManager

__all__ = ["Server", "Session"]

_SESSION_IDS = itertools.count(1)


class Session:
    """One client's handle on the server: a pool binding plus identity.

    Sessions are lightweight — open one per logical client (the benchmark
    opens hundreds).  They are context managers; closing is idempotent and
    decrements the ``sessions_active`` gauge exactly once.
    """

    def __init__(self, server: "Server", pool: str, user: str) -> None:
        self.server = server
        self.pool = pool
        self.user = user
        self.session_id = next(_SESSION_IDS)
        self.statements = 0
        self._closed = False

    def execute(self, sql: str) -> "ResultSet":
        """Run one statement through the pool this session is bound to."""
        if self._closed:
            raise ServingError(f"session {self.session_id} is closed")
        result = self.server._execute(self, sql)
        self.statements += 1
        return result

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.server._session_closed(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class Server:
    """Thread-pool serving layer over one :class:`VerticaCluster`."""

    def __init__(
        self,
        cluster: "VerticaCluster",
        pools: list[PoolConfig] | None = None,
        resource_manager: "ResourceManager | None" = None,
        plan_cache_size: int = 256,
        result_cache_bytes: int = 64 * 1024 * 1024,
        result_cache_entries: int = 512,
    ) -> None:
        self.cluster = cluster
        self.plan_cache = PlanCache(plan_cache_size)
        self.result_cache = ResultCache(result_cache_bytes, result_cache_entries)
        self.resource_manager = resource_manager
        self._lock = threading.Lock()
        self._closed = False
        self._active_sessions = 0
        self._pools: dict[str, ResourcePool] = {}
        self._applications: list["Application"] = []
        configs = pools if pools is not None else [PoolConfig("general")]
        if not configs:
            raise ServingError("server requires at least one resource pool")
        for config in configs:
            if config.name in self._pools:
                raise ServingError(f"duplicate pool name {config.name!r}")
            if (resource_manager is not None
                    and config.memory_budget_bytes is not None):
                # Reserve the pool's budget through the shared broker; an
                # unsatisfiable budget fails server construction instead of
                # silently overcommitting the cluster.
                with cluster.tracer.span(
                        "yarn.allocate", pool_budget=config.memory_budget_bytes):
                    app = resource_manager.submit_application(
                        f"serving.{config.name}",
                        [{"cores": 1, "memory_bytes": config.memory_budget_bytes}],
                        require_all=True,
                    )
                self._applications.append(app)
            self._pools[config.name] = ResourcePool(config, cluster.metrics)

    # -- sessions ---------------------------------------------------------

    def session(self, pool: str = "general", user: str = "dbadmin") -> Session:
        """Open a session bound to ``pool`` (a context manager)."""
        with self._lock:
            if self._closed:
                raise ServingError("server is closed")
            if pool not in self._pools:
                raise ServingError(
                    f"unknown pool {pool!r}; pools: {sorted(self._pools)}")
            self._active_sessions += 1
        session = Session(self, pool, user)
        self.cluster.metrics.gauge("sessions_active").add(1)
        with self.cluster.tracer.span(
                "serve.session", session=session.session_id):
            # A marker span: session open is cheap, but the span records
            # the session id so admit/execute trees can be joined to it.
            pass
        return session

    def _session_closed(self, session: Session) -> None:
        with self._lock:
            self._active_sessions -= 1
        self.cluster.metrics.gauge("sessions_active").add(-1)

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return self._active_sessions

    def pool(self, name: str) -> ResourcePool:
        with self._lock:
            try:
                return self._pools[name]
            except KeyError:
                raise ServingError(f"unknown pool {name!r}") from None

    # -- statement flow ---------------------------------------------------

    def _execute(self, session: Session, sql: str) -> "ResultSet":
        cluster = self.cluster
        prepared = self.plan_cache.prepare(cluster, sql)
        cacheable = is_cacheable(cluster, prepared.statement)
        key_pre: tuple | None = None
        if cacheable:
            key_pre = result_cache_key(cluster, prepared, session.user)
            cached = self.result_cache.lookup(key_pre)
            if cached is not None:
                cluster.metrics.counter("result_cache_hits").add()
                cluster.metrics.counter("statements_served").add()
                return cached
            cluster.metrics.counter("result_cache_misses").add()
        result = self._admit_and_run(session, prepared)
        if cacheable:
            # Store-guard: only cache when no mutation landed between the
            # pre-execution key read and now — otherwise the result may
            # reflect a state in between the two keys.
            key_post = result_cache_key(cluster, prepared, session.user)
            if key_post == key_pre:
                self.result_cache.store(key_post, result)
        cluster.metrics.counter("statements_served").add()
        return result

    def _admit_and_run(self, session: Session,
                       prepared: PreparedStatement) -> "ResultSet":
        cluster = self.cluster
        pool = self.pool(session.pool)
        with cluster.tracer.span(
                "serve.admit", pool_queue_depth=pool.config.queue_depth,
                session=session.session_id) as admit_span:

            def run() -> "ResultSet":
                with cluster.tracer.span(
                        "serve.execute", parent=admit_span,
                        session=session.session_id) as span:
                    if cluster.faults is not None:
                        cluster.faults.perturb(
                            "serving.admit", pool=pool.config.name,
                            session=session.session_id)
                    start = time.perf_counter()
                    with cluster.tracer.span(
                            "query", parent=span,
                            statement=prepared.sql[:200]) as query_span:
                        cluster.metrics.counter("queries_executed").add()
                        result = cluster.executor.execute(
                            prepared.statement, user=session.user,
                            resolved=prepared.resolved)
                        query_span.set(result_rows=len(result))
                    cluster.metrics.histogram("query_seconds").observe(
                        time.perf_counter() - start)
                    return result

            ticket = pool.submit(run)
            waited = pool.await_admission(ticket)
            admit_span.set(queue_seconds=waited)
        return ticket.future.result()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Drain the pools and release YARN reservations (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pools = list(self._pools.values())
            applications = list(self._applications)
            self._applications.clear()
        for pool in pools:
            pool.close(wait=True)
        if self.resource_manager is not None:
            for app in applications:
                with self.cluster.tracer.span("yarn.release"):
                    self.resource_manager.release_application(app)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
