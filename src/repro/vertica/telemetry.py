"""Cluster telemetry: the classic counter facade over the typed registry.

Historically this was a flat thread-safe dict of string-keyed counters.
The real instruments now live in :class:`repro.obs.metrics.MetricsRegistry`
(declared Counter/Gauge/Histogram with units and descriptions — see
``docs/metrics_reference.md``); this class remains as a thin compatibility
shim so the dozens of ``telemetry.add("rows_scanned", n)`` call sites and
every ``telemetry.get(...)`` assertion keep working unchanged.  New code
should prefer the typed registry directly via :attr:`Telemetry.registry`.

The structured event log (``record_event``/``events``) stays here — events
are workload records for the perf model, not instruments.
"""

from __future__ import annotations

import threading

from ..obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["Telemetry"]

_GAUGE_SUFFIXES = ("_now", "_peak")
_HISTOGRAM_SUFFIXES = ("_count", "_sum", "_min", "_max")


class Telemetry:
    """String-keyed facade over a :class:`MetricsRegistry` + event log."""

    def __init__(self, max_events: int = 10_000) -> None:
        self._lock = threading.Lock()
        self.registry = MetricsRegistry()
        self._events: list[tuple[str, dict]] = []
        self._max_events = max_events

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Increment ``counter`` by ``amount``.

        Routes to the instrument kind the name is declared as: counters
        accumulate, gauges shift their level, histograms observe a sample.
        Undeclared names become dynamic counters (old behaviour).
        """
        kind = self.registry.kind_of(counter)
        if kind == "gauge":
            self.registry.gauge(counter).add(amount)
        elif kind == "histogram":
            self.registry.histogram(counter).observe(amount)
        else:
            self.registry.counter(counter).add(amount)

    def get(self, counter: str) -> float:
        """Current value of ``counter`` (0.0 if never recorded).

        Accepts the legacy flat key space: bare counter names, gauge
        ``<name>_now``/``<name>_peak`` keys, and histogram
        ``<name>_{count,sum,min,max}`` keys.
        """
        instrument = self.registry.find(counter)
        if isinstance(instrument, Counter):
            return instrument.value
        if isinstance(instrument, Gauge):
            return instrument.peak if instrument.spec.watermark \
                else instrument.now
        if isinstance(instrument, Histogram):
            return instrument.stats()["sum"]
        for suffix in _GAUGE_SUFFIXES:
            if counter.endswith(suffix):
                base = self.registry.find(counter[: -len(suffix)])
                if isinstance(base, Gauge):
                    return base.now if suffix == "_now" else base.peak
        for suffix in _HISTOGRAM_SUFFIXES:
            if counter.endswith(suffix):
                base = self.registry.find(counter[: -len(suffix)])
                if isinstance(base, Histogram):
                    return base.stats()[suffix[1:]]
        return 0.0

    def observe_max(self, counter: str, value: float) -> None:
        """Record ``value`` into ``counter`` as a running maximum.

        ``<gauge>_peak`` names update the high-water mark of the underlying
        level gauge; other names become watermark gauges.
        """
        if counter.endswith("_peak"):
            base = counter[: -len("_peak")]
            if self.registry.kind_of(base) == "gauge":
                self.registry.gauge(base).observe_max(value)
                return
        self.registry.gauge(counter, watermark=True).observe_max(value)

    def gauge_add(self, gauge: str, delta: float) -> float:
        """Adjust a level gauge, tracking its high-water mark.

        Snapshots expose ``<gauge>_now`` (current level, clamped at 0) and
        ``<gauge>_peak`` (maximum level ever observed).  Returns the new
        level so producers can watermark it onto the active span.  The clamp
        means a ``reset()`` racing an in-flight stream can no longer leave
        the level permanently negative.
        """
        return self.registry.gauge(gauge).add(delta)

    def snapshot(self) -> dict[str, float]:
        """Flat copy of every recorded value, legacy key space."""
        return self.registry.snapshot()

    def record_event(self, kind: str, **fields) -> None:
        """Append a structured event (drops oldest beyond the cap)."""
        with self._lock:
            self._events.append((kind, fields))
            if len(self._events) > self._max_events:
                del self._events[: len(self._events) - self._max_events]

    def events(self, kind: str | None = None) -> list[tuple[str, dict]]:
        with self._lock:
            if kind is None:
                return list(self._events)
            return [e for e in self._events if e[0] == kind]

    def reset(self) -> None:
        self.registry.reset()
        with self._lock:
            self._events.clear()
