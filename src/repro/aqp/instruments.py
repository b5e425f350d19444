"""The AQP subsystem's observability manifest.

Every metric, span, and fault site the approximate-query-processing layer
emits is listed here by name.  The ``manifest-drift`` reprolint rule
(RL905) holds this manifest against the central registries — the metrics
``CATALOG`` (:mod:`repro.obs.metrics`), the ``SPAN_TAXONOMY``
(:mod:`repro.obs.trace`), and ``FAULT_SITES`` (:mod:`repro.faults.sites`)
— in **both** directions: a name listed here but missing from its registry
fails lint, and so does a registry entry the prefixes below mark as the
AQP layer's that this manifest forgot.  The manifest is what keeps
``docs/aqp.md`` honest about the subsystem's complete operational surface.
"""

from __future__ import annotations

__all__ = ["METRICS", "SPANS", "FAULT_SITES"]

#: The page whose operations tables this manifest keeps complete.
DOCS = "docs/aqp.md"
#: Registry entries the AQP layer owns: metrics emitted from modules under
#: this package, spans and fault sites with these name prefixes.
METRICS_MODULE_PREFIX = "repro.aqp"
SPAN_PREFIX = "aqp."
FAULT_SITE_PREFIX = "aqp."

METRICS: tuple[str, ...] = (
    "samples_built",
    "aqp_rewrites",
    "aqp_fallbacks",
    "sample_rows_folded",
    "sample_rebuilds",
    "sample_staleness_epochs",
)

SPANS: tuple[str, ...] = (
    "aqp.build",
    "aqp.rewrite",
    "aqp.refresh",
)

FAULT_SITES: tuple[str, ...] = (
    "aqp.refresh",
)
