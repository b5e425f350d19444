"""no-full-materialization (RL701): one table reader, and hot paths stream.

The streaming batch pipeline exists so that the peak memory of a query is
O(queue_depth x batch_rows), not O(table), and so that every read of table
data passes the one place that handles scan slots, buddy failover, fault
injection and scan telemetry: the per-node scan sources of
:meth:`VerticaCluster.stream_table_per_node`.  Two things would quietly
undo that, and this checker flags both:

* **A side reader.**  ``Table.iter_node_batches``, ``Segment.iter_batches``
  and the cluster's private ``_stream_node_with_failover`` are the layers
  *below* the scan sources.  Anywhere under ``src/repro`` outside
  ``vertica/cluster.py`` and ``vertica/table.py`` (which implement the
  sources), a call to one of them reads table rows with no scan slot, no
  failover and no counters.
* **A whole-table gather on a hot path.**  In the query-execution and
  transfer hot paths (``src/repro/vertica/executor.py``,
  ``src/repro/vertica/cluster.py``, ``src/repro/vertica/joins.py``,
  ``src/repro/vertica/odbc.py``, ``src/repro/transfer/``) a call to the
  collector :meth:`VerticaCluster.gather_table` holds a whole table.
  Anything new must either stream or justify itself with a baseline entry.

In the operators themselves (``executor.py``, ``joins.py``) it also flags
``concat_batches``: gathering a stream's batches into one batch holds the
whole input, so a join's probe side or an aggregate's input cannot quietly
fall back to it.  A join's build side, which is held whole by design, is
the one baseline entry.
"""

from __future__ import annotations

import ast
from typing import Iterable

from reprolint.core import Checker, FileContext, Violation, register

HOT_PATHS = (
    "src/repro/vertica/executor.py",
    "src/repro/vertica/cluster.py",
    "src/repro/vertica/joins.py",
    "src/repro/vertica/odbc.py",
    "src/repro/transfer/",
)

# The readers below the per-node scan sources, and the two files that
# implement the sources on top of them.
SIDE_READ_CALLS = {
    "iter_node_batches": "reads a node's segment around the scan sources",
    "iter_batches": "reads a segment around the scan sources",
    "_stream_node_with_failover": "is the scan sources' private node stream",
}
SOURCE_FILES = (
    "src/repro/vertica/cluster.py",
    "src/repro/vertica/table.py",
)

# The collector that gathers a whole table into arrays in one call.
# Streaming code pulls the per-node sources of stream_table_per_node.
MATERIALIZING_CALLS = {
    "gather_table": "gathers the entire table across all nodes",
}

# Operators that must fold batches as they stream past, and the call that
# would gather a stream instead.
GATHER_PATHS = (
    "src/repro/vertica/executor.py",
    "src/repro/vertica/joins.py",
)
GATHERING_CALLS = {
    "concat_batches": "gathers a whole stream of batches into one batch",
}


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@register
class MaterializationChecker(Checker):
    rule = "no-full-materialization"
    code = "RL701"
    description = (
        "table rows are read only through the per-node scan sources (no "
        "iter_node_batches / iter_batches / _stream_node_with_failover "
        "outside cluster.py and table.py); no gather_table on "
        "executor/transfer hot paths, and no concat_batches in the "
        "executor or join operator"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.endswith(".py") and relpath.startswith("src/repro/")

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        calls = {}
        if ctx.relpath not in SOURCE_FILES:
            calls.update(SIDE_READ_CALLS)
        if ctx.relpath.startswith(HOT_PATHS):
            calls.update(MATERIALIZING_CALLS)
        if ctx.relpath in GATHER_PATHS:
            calls.update(GATHERING_CALLS)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            why = calls.get(name) if name else None
            if why is None:
                continue
            yield self.violation(
                ctx,
                node,
                f"'{name}' {why}; stream rowgroup batches "
                "through stream_table_per_node's per-node sources or "
                "justify it with a baseline entry",
            )
