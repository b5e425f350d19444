"""snapshot-reads (RL801): segment reads outside storage must carry a snapshot.

The MVCC engine (:mod:`repro.vertica.txn`) makes every scan epoch-consistent
by threading a :class:`~repro.vertica.txn.epochs.Snapshot` into the segment
read entry point, ``iter_batches``.
A call site that omits the ``snapshot=`` keyword reads raw physical storage:
no delete-vector filtering, no WOS union, no epoch bound.  That is correct
*inside* the storage layer and the txn package (they implement the
resolution), and in ``table.py`` itself (it resolves snapshots for its
callers) — anywhere else it silently resurrects deleted rows and tears
in-flight insert batches.

This checker flags every call to it in
``src/repro/`` outside the sanctioned packages unless it passes an explicit
``snapshot=`` keyword (``snapshot=None`` is accepted: it documents that the
callee resolves the latest committed snapshot itself).
"""

from __future__ import annotations

import ast
from typing import Iterable

from reprolint.core import Checker, FileContext, Violation, register

#: These implement (or sit below) snapshot resolution; raw reads are their job.
EXEMPT_PREFIXES = (
    "src/repro/storage/",
    "src/repro/vertica/txn/",
    "src/repro/vertica/table.py",
)

SNAPSHOT_READ_CALLS = ("iter_batches",)


@register
class SnapshotReadChecker(Checker):
    rule = "snapshot-reads"
    code = "RL801"
    description = (
        "segment rowgroup reads (iter_batches) "
        "outside the storage and txn layers must pass "
        "snapshot=, or they bypass delete vectors and the WOS"
    )

    def applies_to(self, relpath: str) -> bool:
        if not relpath.endswith(".py") or not relpath.startswith("src/repro/"):
            return False
        return not any(relpath.startswith(prefix) for prefix in EXEMPT_PREFIXES)

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        calls = [
            node for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SNAPSHOT_READ_CALLS
            and not any(kw.arg == "snapshot" for kw in node.keywords)
        ]
        for node in sorted(calls, key=lambda n: (n.lineno, n.col_offset)):
            yield self.violation(
                ctx,
                node,
                f"'{node.func.attr}' without snapshot= bypasses "
                "delete-vector and WOS resolution; pass the statement "
                "snapshot (or snapshot=None to resolve the latest "
                "committed epoch)",
            )
