"""sim-determinism (SD501): perf-model code must be replayable.

The performance models exist to *replay* measured workloads at paper scale
— a wall-clock read or an unseeded global RNG makes runs non-reproducible
and calibration numbers meaningless.  In ``src/repro/perfmodel/`` this
checker flags:

* ``time.time()`` / ``time.time_ns()`` / ``datetime.now()`` /
  ``datetime.utcnow()`` — wall clock; modelled time must come from the
  models' own arithmetic, measured time from explicit inputs;
* ``random.<fn>()`` module-level calls — the process-global RNG, seeded (or
  not) by interpreter startup; use a seeded ``random.Random(seed)``;
* legacy ``np.random.<fn>()`` global-state calls — use
  ``np.random.default_rng(seed)`` (``default_rng``, ``Generator`` and
  ``SeedSequence`` themselves are fine).
"""

from __future__ import annotations

import ast
from typing import Iterable

from reprolint.core import Checker, FileContext, Violation, register

SCOPED_PATHS = ("src/repro/perfmodel/",)
WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}
NUMPY_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}
# Constructors of explicitly-seeded RNGs — the recommended replacements.
PY_RANDOM_OK = {"Random", "SystemRandom"}


def _dotted(node: ast.AST) -> list[str]:
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return list(reversed(parts))
    return []


@register
class SimDeterminismChecker(Checker):
    rule = "sim-determinism"
    code = "SD501"
    description = (
        "no wall-clock reads or unseeded global RNG use inside "
        "perfmodel/ — simulations must be replayable"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.endswith(".py") and any(
            relpath.startswith(prefix) for prefix in SCOPED_PATHS
        )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if len(dotted) < 2:
                continue
            tail = (dotted[-2], dotted[-1])
            if tail in WALL_CLOCK:
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock read {'.'.join(dotted)}() in simulation code; "
                    "pass timestamps explicitly",
                )
            elif (
                dotted[0] == "random"
                and len(dotted) == 2
                and dotted[1] not in PY_RANDOM_OK
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"global-RNG call {'.'.join(dotted)}(); use a seeded "
                    "random.Random(seed) instance so runs replay identically",
                )
            elif (
                len(dotted) >= 3
                and dotted[-2] == "random"
                and dotted[0] in ("np", "numpy")
                and dotted[-1] not in NUMPY_RANDOM_OK
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"legacy numpy global-RNG call {'.'.join(dotted)}(); use "
                    "np.random.default_rng(seed)",
                )
