"""Hierarchical span tracer with ambient context propagation.

A :class:`Span` is one timed unit of work — a SQL statement, one operator,
one scan source, one UDTF instance, one VFT stream, one DR ``foreach``
task — with numeric attributes (rows, bytes, peaks) and child spans. A
:class:`Tracer` records the roots; :func:`current_span` exposes the ambient
span so deeply nested code (a UDTF running three layers under the executor)
can annotate the active span without threading it through every signature.

Propagation rules:

* Within a thread, ``tracer.span(...)`` nests under the ambient span
  automatically (a :mod:`contextvars` variable).
* Across threads, contextvars do **not** flow into pool workers — callers
  capture ``tracer.current()`` *before* submitting and pass it as
  ``parent=``. Every pool fan-out in the executor/DR session does this.
* Across engines (the cluster's tracer vs a DR session's), children attach
  to the parent *span object* regardless of which tracer opened it, so a
  VFT transfer shows as one connected tree.

Spans are cheap (one ``perf_counter`` pair + dict) and always on; the
tracer keeps a bounded deque of recent root spans so a long-lived cluster
cannot grow without bound.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import itertools
import threading
import time
import weakref
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "current_span", "add_to_current",
           "max_to_current", "all_tracers", "SPAN_TAXONOMY"]

#: Every span name the engines open, with its meaning.  This is the span
#: taxonomy documented in ``docs/observability.md``; the ``registry-drift``
#: reprolint rule (RL903) holds every ``tracer.span("...")`` literal in the
#: source tree to this set, so a renamed or ad-hoc span name fails lint
#: instead of silently fragmenting traces.
SPAN_TAXONOMY: dict[str, str] = {
    "query": "one SQL statement, opened by VerticaCluster.sql",
    "scan": "scan-shaped SELECT (executor operator root)",
    "aggregate": "two-phase aggregate SELECT (executor operator root)",
    "join": "hash-join SELECT (executor operator root)",
    "udtf": "transform-function SELECT (executor operator root)",
    "scan.node": "one node's scan of its segment",
    "aggregate.node": "one node's partial-aggregate fold",
    "udtf.producer": "streaming UDTF scan side, one per node",
    "udtf.instance": "one transform-function instance",
    "vft.transfer": "one VFT transfer (db2darray / db2dframe)",
    "vft.finalize": "VFT assembly of received chunks into the dobject",
    "txn.moveout": "one Tuple Mover moveout pass over a segment's WOS",
    "txn.mergeout": "one Tuple Mover mergeout pass over a segment's ROS",
    "dr.task": "one Distributed R foreach task",
    "yarn.allocate": "DR session container allocation",
    "yarn.release": "DR session container release",
    "fault.injected": "a FaultPlan spec fired at an injection site",
    "fault.recovered": "a recovery layer absorbed an injected fault",
    "ml.fold": "one solver run through the unified fold_fit driver",
    "ml.fold.step": "one synchronized partition-fold iteration (fold_fit)",
    "serve.session": "a serving session's lifetime, opened by Server.session",
    "serve.admit": "admission control: queueing for a pool execution slot",
    "serve.execute": "one admitted statement running on a pool worker",
    "aqp.build": "CREATE SAMPLE materialization (scan, draw, insert)",
    "aqp.rewrite": "WITHIN-query sample selection and estimation",
    "aqp.refresh": "one sample refresh pass (fold, rebuild, or noop)",
}

_span_ids = itertools.count(1)

#: Ambient active span for the current (thread, context).
_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Every live tracer, for harness-level export (weak: GC'd with its owner).
_TRACERS: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


class Span:
    """One timed unit of work with numeric attributes and children."""

    def __init__(self, name: str, parent: "Span | None" = None,
                 attributes: dict[str, Any] | None = None) -> None:
        self.name = name
        self.span_id = next(_span_ids)
        self.parent = parent
        self.children: list[Span] = []
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.thread_id = threading.get_ident()
        self.start = time.perf_counter()
        self.end: float | None = None
        self.error: str | None = None
        self._lock = threading.Lock()
        if parent is not None:
            parent._attach_child(self)

    def _attach_child(self, child: "Span") -> None:
        with self._lock:
            self.children.append(child)

    # -- attribute updates (all safe from concurrent child threads) ----------

    def add(self, **attrs: float) -> None:
        """Accumulate numeric attributes (``span.add(rows=3)`` sums)."""
        with self._lock:
            for key, value in attrs.items():
                self.attributes[key] = self.attributes.get(key, 0) + value

    def set(self, **attrs: Any) -> None:
        """Overwrite attributes."""
        with self._lock:
            self.attributes.update(attrs)

    def max(self, **attrs: float) -> None:
        """Watermark attributes (keep the maximum ever recorded)."""
        with self._lock:
            for key, value in attrs.items():
                prev = self.attributes.get(key)
                if prev is None or value > prev:
                    self.attributes[key] = value

    # -- lifecycle -----------------------------------------------------------

    def finish(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()

    @property
    def duration(self) -> float:
        """Seconds; uses *now* while the span is still open."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and all descendants."""
        yield self
        with self._lock:
            children = list(self.children)
        for child in children:
            yield from child.walk()

    def total(self, key: str) -> float:
        """Sum of a numeric attribute over this span and all descendants."""
        acc = 0.0
        for span in self.walk():
            value = span.attributes.get(key)
            if isinstance(value, (int, float)):
                acc += value
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"children={len(self.children)}, attrs={self.attributes})")


class Tracer:
    """Records root spans; each engine (cluster, DR session) owns one."""

    def __init__(self, max_roots: int = 256) -> None:
        self._lock = threading.Lock()
        self._roots: collections.deque[Span] = collections.deque(
            maxlen=max_roots)
        _TRACERS.add(self)

    def current(self) -> Span | None:
        """The ambient span for this thread/context (tracer-independent)."""
        return _CURRENT.get()

    @contextlib.contextmanager
    def span(self, name: str, parent: Span | None = None, root: bool = False,
             **attrs: Any) -> Iterator[Span]:
        """Open a span, make it ambient for the body, close it on exit.

        Nests under the ambient span unless ``parent=`` is given (use for
        cross-thread propagation) or ``root=True`` forces a detached tree.
        Parentless spans are recorded as roots of this tracer.
        """
        if parent is None and not root:
            parent = _CURRENT.get()
        span = Span(name, parent=parent, attributes=attrs)
        if parent is None:
            with self._lock:
                self._roots.append(span)
        token = _CURRENT.set(span)
        try:
            yield span
        except BaseException as exc:
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            _CURRENT.reset(token)
            span.finish()

    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def last_root(self) -> Span | None:
        with self._lock:
            return self._roots[-1] if self._roots else None

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()


def current_span() -> Span | None:
    """The ambient span, or None when no span is active."""
    return _CURRENT.get()


def add_to_current(**attrs: float) -> None:
    """Accumulate attributes on the ambient span; no-op when none is active.

    This is the hook deeply nested code uses (VFT frame sender, prediction
    UDTFs) — it costs one contextvar read when tracing has no active span.
    """
    span = _CURRENT.get()
    if span is not None:
        span.add(**attrs)


def max_to_current(**attrs: float) -> None:
    """Watermark attributes on the ambient span; no-op when none is active."""
    span = _CURRENT.get()
    if span is not None:
        span.max(**attrs)


def all_tracers() -> list[Tracer]:
    """Every live tracer (for harness-level trace export)."""
    return list(_TRACERS)
