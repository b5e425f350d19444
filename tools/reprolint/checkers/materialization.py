"""no-full-materialization (RL701): executor/transfer hot paths must stream.

The streaming batch pipeline exists so that the peak memory of a query is
O(queue_depth x batch_rows), not O(table), and so that every read of table
data passes the one place that handles scan slots, buddy failover, fault
injection and scan telemetry.  Both properties die quietly the moment
someone on a hot path calls one of the whole-table (or whole-segment)
materializing entry points — ``scan_all``, an unbatched ``read_columns``,
``scan_node`` — instead of pulling rowgroup batches through
:meth:`VerticaCluster.stream_table_per_node` /
:meth:`VerticaCluster.stream_node_with_failover`.

This checker flags every call to one of those names in the query-execution
and transfer hot paths (``src/repro/vertica/executor.py``,
``src/repro/vertica/cluster.py``, ``src/repro/vertica/joins.py``,
``src/repro/vertica/odbc.py``, ``src/repro/transfer/``).  Anything new must
either stream or justify itself with a baseline entry.

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

# Entry points that materialize a whole table / segment / node slice in one
# call.  Streaming code uses Segment.iter_batches, stream_node_with_failover
# and stream_table_per_node instead.
MATERIALIZING_CALLS = {
    "scan_all": "materializes the entire table across all nodes",
    "read_columns": "materializes a whole segment in one unbatched read",
    "scan_node": "materializes a node's entire segment",
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
        "no whole-table/segment materialization (scan_all, unbatched "
        "read_columns, scan_node) on executor/transfer hot paths, and no "
        "concat_batches in the executor or join operator; pull rowgroup "
        "batches through the streaming pipeline instead"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.endswith(".py") and any(
            relpath.startswith(prefix) for prefix in HOT_PATHS
        )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        calls = dict(MATERIALIZING_CALLS)
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
                "(stream_table_per_node / stream_node_with_failover) or "
                "justify it with a baseline entry",
            )
