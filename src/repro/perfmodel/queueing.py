"""Closed-form FIFO queueing shared by the performance models.

Every queue the models need is K identical jobs served FIFO by k identical
slots, all jobs arriving together: the jobs run in ⌈K/k⌉ back-to-back
waves, so the last one ends ⌈K/k⌉ service times after the first starts.
Per-node row shares come from one validated skew vector.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import SimulationError

__all__ = ["node_weights", "wave_ends"]


def node_weights(skew: Sequence[float] | None, nodes: int) -> Sequence[float]:
    """The per-node share weights: uniform when ``skew`` is empty, else
    ``skew`` itself once it has one finite, non-negative weight per node
    and a positive sum."""
    if not skew:
        return [1.0] * nodes
    if len(skew) != nodes:
        raise SimulationError(f"{len(skew)} skew weights for {nodes} nodes")
    if not all(math.isfinite(w) and w >= 0 for w in skew):
        raise SimulationError(f"skew weights must be finite and non-negative: {list(skew)}")
    if sum(skew) <= 0:
        raise SimulationError("skew weights sum to zero")
    return skew


def wave_ends(start: float, service: float, jobs: int, slots: int) -> list[float]:
    """End time of each wave of ``jobs`` identical jobs queued FIFO on
    ``slots`` slots from ``start``: wave *w* holds jobs ``[w·slots,
    (w+1)·slots)``.  The clock advances one addition per wave, the way an
    event loop would reach the same instants."""
    if slots < 1:
        raise SimulationError(f"slot count must be >= 1, got {slots}")
    if start < 0 or service < 0:
        raise SimulationError(f"negative start or service time: {start!r}, {service!r}")
    ends = []
    clock = start
    for _ in range(-(-jobs // slots)):
        clock += service
        ends.append(clock)
    return ends
