"""Deterministic, seedable fault injection for the simulated cluster.

The subsystem is built around *named injection sites*: hot paths call
``plan.perturb("site.name", node=..., instance=...)`` at the moments where a
real deployment could fail — a VFT frame hitting the wire, a scan pulling the
next rowgroup batch, a Tuple Mover pass flushing a segment, a DR task
running on a worker, a DFS blob fetch.  A :class:`FaultPlan` holds a list of
:class:`FaultSpec` trigger predicates ("on the 3rd ``vft.send_chunk`` from
node 2", "during moveout on node 0") and, when one matches, applies the
configured failure kind:

===================  ========================================================
kind                 effect at the injection site
===================  ========================================================
``NODE_CRASH``       fail the database node named by the context, then raise
                     :class:`InjectedFault` (the in-flight operation dies the
                     way it would if the node vanished mid-call)
``STALL``            sleep ``stall_seconds`` (models a stream stall; retry
                     policies with a send timeout convert it into a timeout)
``TORN_FRAME``       truncate the wire bytes passed as ``data`` (models a
                     partial write; receivers must reject, senders resend)
``WORKER_DEATH``     mark the DR worker dead, then raise
                     :class:`InjectedFault`
``BLOB_LOSS``        silently drop one DFS replica's bytes (read-repair must
                     heal it); the operation itself continues
``ERROR``            raise :class:`InjectedFault` with no side effect
===================  ========================================================

Everything is deterministic for a fixed seed and a deterministic execution
order: specs fire on exact match-visit counts kept by a thread-safe
:class:`FaultClock`, and the only randomness (retry jitter) comes from a
seeded ``random.Random``.  Sites visited concurrently from several threads
(e.g. ``vft.send_chunk`` across nodes) should be pinned with ``match=`` so
the matching subsequence is single-threaded and its ordering reproducible.

Lock discipline: ``perturb`` matches and counts under the plan's own lock,
then *releases it* before applying effects — effects take engine locks
(``Cluster.fail_node``, ``DFS.lose_replica``) and emit spans, and holding
the plan lock across those would invert lock order under the runtime probe.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.dr.session import DRSession
    from repro.vertica.cluster import VerticaCluster


class InjectedFault(ReproError):
    """Raised at an injection site when a fault plan fires a failure.

    Recovery layers (buddy failover, DR task re-execution, transfer retry)
    treat it like the organic failure it models; anything that escapes to
    the caller means a scenario with no recovery path.
    """


class FaultKind:
    """Failure kinds understood by :meth:`FaultPlan.perturb`."""

    NODE_CRASH = "node_crash"
    STALL = "stall"
    TORN_FRAME = "torn_frame"
    WORKER_DEATH = "worker_death"
    BLOB_LOSS = "blob_loss"
    ERROR = "error"

    ALL = (NODE_CRASH, STALL, TORN_FRAME, WORKER_DEATH, BLOB_LOSS, ERROR)


@dataclass
class FaultSpec:
    """One trigger predicate: *where*, *when*, and *what kind* of failure.

    A spec matches a ``perturb`` call when the site name equals ``site``,
    every ``match`` key equals the call's context value for that key, and
    the optional ``where`` predicate accepts the context.  Matching visits
    are counted per spec; the spec fires on matching visits numbered
    ``after + 1`` through ``after + times`` (``times=-1`` means "forever").
    """

    site: str
    kind: str
    match: dict[str, Any] = field(default_factory=dict)
    after: int = 0
    times: int = 1
    stall_seconds: float = 0.1
    where: Callable[[dict[str, Any]], bool] | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FaultKind.ALL}")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.times == 0 or self.times < -1:
            raise ValueError("times must be positive or -1 (unlimited)")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")

    def accepts(self, ctx: dict[str, Any]) -> bool:
        """Whether this spec's predicates accept a site visit's context."""
        for key, value in self.match.items():
            if ctx.get(key) != value:
                return False
        if self.where is not None and not self.where(dict(ctx)):
            return False
        return True

    def window_contains(self, hit: int) -> bool:
        """Whether matching visit number ``hit`` (1-based) should fire."""
        if hit <= self.after:
            return False
        return self.times == -1 or hit <= self.after + self.times


@dataclass
class FaultEvent:
    """A fired fault, recorded in :attr:`FaultPlan.history`."""

    site: str
    kind: str
    visit: int
    context: dict[str, Any]
    note: str = ""


class FaultClock:
    """Thread-safe visit counters for named injection sites."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._visits: dict[str, int] = {}

    def tick(self, site: str) -> int:
        """Record one visit to ``site`` and return its 1-based visit number."""
        with self._lock:
            visit = self._visits.get(site, 0) + 1
            self._visits[site] = visit
            return visit

    def visits(self, site: str) -> int:
        with self._lock:
            return self._visits.get(site, 0)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._visits)


class FaultPlan:
    """A seeded set of fault specs, armed on a cluster and/or DR session.

    Arm with ``cluster.install_fault_plan(plan)`` and/or
    ``session.install_fault_plan(plan)``; injection sites in the engine then
    consult the plan on every visit.  ``plan.history`` records every fired
    fault, ``plan.tracer`` holds the ``fault.injected`` spans (nested under
    whatever engine span was ambient at injection time, when one was), and
    ``plan.metrics`` counts ``faults_injected``.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = FaultClock()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.history: list[FaultEvent] = []
        self._injected_spans: list[Span] = []
        self._specs: list[FaultSpec] = list(specs)
        self._hits: dict[int, int] = {}
        self._lock = threading.Lock()
        self._cluster: VerticaCluster | None = None
        self._session: DRSession | None = None

    # -- construction ----------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultPlan":
        with self._lock:
            self._specs.append(spec)
        return self

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        with self._lock:
            return tuple(self._specs)

    @classmethod
    def single(
        cls,
        site: str,
        kind: str,
        *,
        seed: int = 0,
        **spec_kwargs: Any,
    ) -> "FaultPlan":
        """Convenience: a plan with exactly one spec."""
        return cls([FaultSpec(site=site, kind=kind, **spec_kwargs)], seed=seed)

    # -- binding ---------------------------------------------------------

    def bind_cluster(self, cluster: "VerticaCluster") -> None:
        with self._lock:
            self._cluster = cluster

    def bind_session(self, session: "DRSession") -> None:
        with self._lock:
            self._session = session

    # -- inspection ------------------------------------------------------

    def fired(self, site: str | None = None) -> list[FaultEvent]:
        """Fired events, optionally filtered to one site."""
        with self._lock:
            events = list(self.history)
        if site is None:
            return events
        return [event for event in events if event.site == site]

    def injected_spans(self) -> list[Span]:
        """All ``fault.injected`` spans, wherever they attached.

        Tracked explicitly: a span opened under an ambient engine span
        attaches to *that* tree, not to this plan's tracer roots.
        """
        with self._lock:
            return list(self._injected_spans)

    # -- the injection site API ------------------------------------------

    def perturb(self, site: str, data: bytes | None = None, **ctx: Any) -> bytes | None:
        """Visit injection site ``site``; apply any fault that triggers.

        ``data`` carries wire bytes for sites that can tear them; the
        (possibly truncated) bytes are returned.  Kinds that model a hard
        failure raise :class:`InjectedFault` after applying their side
        effect.  With no armed spec matching, this is a counter bump.
        """
        visit = self.clock.tick(site)
        triggered: list[FaultSpec] = []
        with self._lock:
            cluster = self._cluster
            session = self._session
            for index, spec in enumerate(self._specs):
                if spec.site != site or not spec.accepts(ctx):
                    continue
                hit = self._hits.get(index, 0) + 1
                self._hits[index] = hit
                if spec.window_contains(hit):
                    triggered.append(spec)
        # Effects run *outside* the plan lock: they take engine locks and
        # open spans, and the runtime lock-order probe (REPROLINT_LOCK_CHECK)
        # must never see plan-lock -> engine-lock nesting.
        for spec in triggered:
            data = self._apply(spec, site, visit, dict(ctx), data, cluster, session)
        return data

    # -- effect application ----------------------------------------------

    def _apply(
        self,
        spec: FaultSpec,
        site: str,
        visit: int,
        ctx: dict[str, Any],
        data: bytes | None,
        cluster: "VerticaCluster | None",
        session: "DRSession | None",
    ) -> bytes | None:
        event = FaultEvent(site=site, kind=spec.kind, visit=visit, context=ctx, note=spec.note)
        with self._lock:
            self.history.append(event)
        self.metrics.counter("faults_injected").add()
        with self.tracer.span(
            "fault.injected", site=site, kind=spec.kind, visit=visit, **ctx
        ) as injected:
            pass
        with self._lock:
            self._injected_spans.append(injected)

        if spec.kind == FaultKind.STALL:
            time.sleep(spec.stall_seconds)
            return data

        if spec.kind == FaultKind.TORN_FRAME:
            if data is None:
                raise InjectedFault(f"torn-frame fault at {site!r} but the site carries no bytes")
            return bytes(data[: max(1, len(data) // 2)])

        if spec.kind == FaultKind.NODE_CRASH:
            node = self._pick(spec, ctx, "node")
            if cluster is not None and node is not None:
                if not cluster.nodes[node].is_down:
                    cluster.fail_node(node)
            raise InjectedFault(f"injected node crash at {site!r}: node {node} is down")

        if spec.kind == FaultKind.WORKER_DEATH:
            worker = self._pick(spec, ctx, "worker")
            if session is not None and worker is not None:
                if not session.workers[worker].is_down:
                    session.workers[worker].fail()
                    session.metrics.counter("dr_worker_failures").add()
            raise InjectedFault(f"injected worker death at {site!r}: worker {worker} is dead")

        if spec.kind == FaultKind.BLOB_LOSS:
            path = ctx.get("path", spec.match.get("path"))
            if cluster is not None and path is not None:
                cluster.dfs.lose_replica(str(path))
            return data

        # FaultKind.ERROR — plain failure with no engine side effect.
        raise InjectedFault(f"injected fault at {site!r} (visit {visit})")

    @staticmethod
    def _pick(spec: FaultSpec, ctx: dict[str, Any], key: str) -> int | None:
        value = ctx.get(key, spec.match.get(key))
        return int(value) if value is not None else None


def spans_named(tracer: Tracer, name: str) -> list[Span]:
    """All spans with ``name`` anywhere under ``tracer``'s root spans."""
    return [
        span
        for root in tracer.roots()
        for span in root.walk()
        if span.name == name
    ]
