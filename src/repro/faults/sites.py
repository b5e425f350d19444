"""The registry of named fault-injection sites.

Hot paths call ``plan.perturb("site.name", **context)`` at the moments a
real deployment could fail; this module is the single source of truth for
which site names exist.  ``docs/fault_tolerance.md`` documents the same
catalog, and the ``registry-drift`` reprolint rule (RL902) holds every
``perturb("...")`` literal in the source tree to this set — a typo'd or
undeclared site would otherwise never match any :class:`FaultSpec` and the
chaos scenario would silently test nothing.

Registering a new site here (with a description) is deliberate friction:
it forces the docs table and any scenario suites to learn about the new
failure point.
"""

from __future__ import annotations

__all__ = ["FAULT_SITES", "is_registered_site"]

#: Site name → where it lives / what failure it models.  Keep in sync with
#: the table in ``docs/fault_tolerance.md`` (drift-checked by
#: ``tests/test_docs_drift.py``).
FAULT_SITES: dict[str, str] = {
    "vft.send_chunk": "VFT frame sender: wire failures per frame "
                      "(crash, stall, torn bytes)",
    "scan.stream": "per-node scan source, per batch: node loss before the "
                   "first batch (after=0) or mid-stream",
    "udtf.instance": "executor UDTF instances: instance failure in a query",
    "dr.task": "DRSession.run_partition_tasks: R worker death mid-foreach",
    "txn.moveout": "Tuple Mover moveout pass, per segment",
    "txn.mergeout": "Tuple Mover mergeout pass, per segment",
    "dfs.read": "DFS blob fetch: replica loss on the read path",
    "ml.fold.step": "unified solver driver (fold_fit): master failure "
                    "between fan-outs, once per iteration",
    "serving.admit": "serving pool worker at slot grant: a stall holds the "
                     "slot (queue backs up, admissions time out); an error "
                     "fails the admitted statement",
    "aqp.refresh": "sample refresh pass, before any sample mutation: a "
                   "crash leaves the sample stale but consistent (the next "
                   "pass re-folds the same window)",
}


def is_registered_site(site: str) -> bool:
    """Whether ``site`` is a declared injection site."""
    return site in FAULT_SITES
