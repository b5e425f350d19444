"""The serving layer's observability manifest.

Every metric, span, and fault site the serving layer emits is listed here
by name.  The ``manifest-drift`` reprolint rule (RL905) holds this
manifest against the central registries — the metrics ``CATALOG``
(:mod:`repro.obs.metrics`), the ``SPAN_TAXONOMY``
(:mod:`repro.obs.trace`), and ``FAULT_SITES`` (:mod:`repro.faults.sites`)
— in **both** directions: a name listed here but missing from its registry
fails lint, and so does a registry entry the prefixes below mark as the
serving layer's that this manifest forgot.  The manifest is what keeps
``docs/serving.md`` honest about the layer's complete operational surface.
"""

from __future__ import annotations

__all__ = ["METRICS", "SPANS", "FAULT_SITES"]

#: The page whose operations tables this manifest keeps complete.
DOCS = "docs/serving.md"
#: Registry entries the serving layer owns: metrics emitted from modules
#: under this package, spans and fault sites with these name prefixes.
METRICS_MODULE_PREFIX = "repro.serving"
SPAN_PREFIX = "serve."
FAULT_SITE_PREFIX = "serving."

METRICS: tuple[str, ...] = (
    "sessions_active",
    "statements_served",
    "statements_rejected",
    "admission_queue_seconds",
    "plan_cache_hits",
    "plan_cache_misses",
    "result_cache_hits",
    "result_cache_misses",
)

SPANS: tuple[str, ...] = (
    "serve.session",
    "serve.admit",
    "serve.execute",
)

FAULT_SITES: tuple[str, ...] = (
    "serving.admit",
)
