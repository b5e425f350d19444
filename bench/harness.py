"""Timing, span, counter and statistics plumbing shared by the workloads.

A `Recorder` wraps every call the benchmark makes into the program.  With
tracing off it keeps one duration per call; with tracing on it also keeps a
span (name, layer, start, end, parent, workload, pass id) and, for tagged
calls, the registry-counter deltas across the call.  Nothing here reaches
into the program: counters come from `repro.obs.all_registries()` only.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np


def counter_snapshot() -> list[tuple[Any, dict[str, float]]]:
    """Every live registry with its snapshot.  Holding the registries keeps
    them alive until `counter_delta`, so a recycled `id()` cannot alias."""
    from repro.obs import all_registries

    return [(registry, registry.snapshot()) for registry in all_registries()]


def counter_delta(before: list[tuple[Any, dict[str, float]]]) -> dict[str, float]:
    """Per-instrument change since `before`, summed over live registries
    (a cluster and a DR session each own one)."""
    from repro.obs import all_registries

    old = {id(registry): values for registry, values in before}
    delta: dict[str, float] = {}
    for registry in all_registries():
        base = old.get(id(registry), {})
        for name, value in registry.snapshot().items():
            change = value - base.get(name, 0.0)
            if change:
                delta[name] = delta.get(name, 0.0) + change
    return delta


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rate(amount: float, seconds: float) -> float:
    """`amount` per second; 0 when the layer did no work (no samples)."""
    return amount / seconds if seconds > 0 else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warn(message: str) -> None:
    print(f"bench: warning: {message}", file=sys.stderr)


class Recorder:
    """Collects durations, spans, counter deltas and check outcomes."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.samples: dict[str, list[float]] = {}
        self.read_steps: set[str] = set()
        self.pass_seconds: list[float] = []
        self.pass_traced: list[bool] = []
        self.spans: list[dict] = []
        self.tag_counts: dict[str, dict[str, float]] = {}
        self.tag_calls: dict[str, int] = {}
        self.pass_counts: dict[str, float] | None = None  # first traced pass
        self.rows_returned = 0   # by read calls of the first traced pass
        self.operations = 0
        self.failed = 0
        self.checks = 0
        self.failures: list[str] = []
        self.tracing = False
        self._pass_id = -1
        self.pass_span: int | None = None
        self._pass_busy = 0.0
        self._pass_before: list | None = None

    # -- passes -------------------------------------------------------------

    def begin_pass(self, pass_id: int, tracing: bool) -> None:
        self._pass_id = pass_id
        self.tracing = tracing
        self._pass_busy = 0.0
        if tracing:
            self.pass_span = self._open_span("pass", "harness", None)
            if self.pass_counts is None:
                self._pass_before = counter_snapshot()

    def end_pass(self, wall: float | None = None) -> None:
        """Close the pass.  `wall` overrides the default pass time (the sum
        of its calls) for workloads whose calls overlap in threads."""
        if self.tracing:
            self._close_span(self.pass_span)
            if self._pass_before is not None:
                self.pass_counts = counter_delta(self._pass_before)
                self._pass_before = None
        self.pass_seconds.append(self._pass_busy if wall is None else wall)
        self.pass_traced.append(self.tracing)
        self.tracing = False
        self.pass_span = None

    # -- calls --------------------------------------------------------------

    def call(self, step: str, layer: str, fn: Callable, *args,
             read: bool = False, tag: str | None = None, **kwargs):
        """Time one call into the program's public surface."""
        counted = self.tracing and tag is not None
        before = counter_snapshot() if counted else None
        span = self._open_span(step, layer, self.pass_span) if self.tracing else None
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        if span is not None:
            self._close_span(span)
        if counted:
            into = self.tag_counts.setdefault(tag, {})
            for name, change in counter_delta(before).items():
                into[name] = into.get(name, 0.0) + change
            self.tag_calls[tag] = self.tag_calls.get(tag, 0) + 1
        if read and self._pass_before is not None:
            self.rows_returned += len(result)
        self.record(step, seconds, read=read)
        return result

    def record(self, step: str, seconds: float, read: bool = False) -> None:
        self.samples.setdefault(step, []).append(seconds)
        if read:
            self.read_steps.add(step)
        self.operations += 1
        self._pass_busy += seconds

    def add_span(self, name: str, layer: str, start: float, end: float,
                 parent: int | None) -> int:
        self.spans.append({"name": name, "layer": layer, "start": start,
                           "end": end, "parent": parent,
                           "workload": self.workload, "pass": self._pass_id})
        return len(self.spans) - 1

    def _open_span(self, name: str, layer: str, parent: int | None) -> int:
        return self.add_span(name, layer, time.perf_counter(), math.nan, parent)

    def _close_span(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()

    # -- correctness --------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        """One output compared with its reference; a wrong answer is a
        failed operation."""
        self.checks += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    # -- summaries ----------------------------------------------------------

    def median_s(self, step: str) -> float:
        """Median duration of `step`, 0 when the workload never ran it."""
        values = self.samples.get(step)
        return median(values) if values else 0.0

    def per_second(self, step: str, amount: float = 1.0) -> float:
        return rate(amount, self.median_s(step))

    def read_samples(self) -> list[float]:
        return [s for step in sorted(self.read_steps) for s in self.samples[step]]

    def typical_read_s(self) -> float:
        """Median over reads of each read's statement median.  Pooling the
        raw samples of a few very different statements puts the median in
        the gap between two of them, where it is decided by their tails."""
        return median([self.median_s(step) for step in self.read_steps
                       for _ in self.samples[step]])

    def layer_shares(self) -> dict[str, float]:
        """Share of traced pass time spent in each layer's spans, in percent.
        A span's self time is its duration minus what its children cover, so
        the `harness` share is the benchmark's own overhead inside passes."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                           + span["end"] - span["start"])
        self_time: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span["end"] - span["start"] - covered.get(index, 0.0)
            # Children running in parallel threads can cover more than
            # their parent's wall time.
            self_time[span["layer"]] = self_time.get(span["layer"], 0.0) + max(own, 0.0)
        scale = 100.0 / sum(self_time.values())
        return {layer: seconds * scale for layer, seconds in self_time.items()}

    def write_spans(self, directory: Path, seed: int) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"spans_{self.workload}_seed{seed}.json"
        path.write_text(json.dumps(self.spans))
        return path
