"""thread-hygiene (TH601): no mutable default args, no fire-and-forget daemons,
and one place that starts the query engine's threads.

Three defect classes that bite threaded engines:

* **Mutable default arguments** — a ``def f(x, acc=[])`` default is created
  once and shared by every call *and every thread*; in a thread-pool worker
  this is silent cross-request state leakage.  Flagged everywhere.
* **Daemon threads without a shutdown path** — ``threading.Thread(...,
  daemon=True)`` (or a ``t.daemon = True`` assignment) dies abruptly at
  interpreter exit, mid-mutation, with locks held.  The engines here manage
  worker lifetimes through ``ThreadPoolExecutor`` / explicit ``shutdown()``;
  a daemon thread is almost always a missing ``join()``.  Suppress with a
  justification if a true background sentinel is intended.
* **Threads started outside the scheduler** — under ``src/repro/vertica/``
  a ``Thread(`` or ``ThreadPoolExecutor(`` call may appear only in
  ``QueryExecutor._fan_out`` (every statement's parallel work runs as its
  tasks) and ``TupleMover.notify`` (the Tuple Mover's parked background
  thread).  Anything else that wants a thread submits a fan-out task.
"""

from __future__ import annotations

import ast
from typing import Iterable

from reprolint.core import Checker, FileContext, Violation, register

MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}

ENGINE_PREFIX = "src/repro/vertica/"
#: (path, enclosing symbol) of the only thread-creation sites in the engine.
ENGINE_THREAD_SITES = {
    ("src/repro/vertica/executor.py", "QueryExecutor._fan_out"),
    ("src/repro/vertica/txn/mover.py", "TupleMover.notify"),
}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in MUTABLE_FACTORIES
    return False


def _callee_name(call: ast.Call) -> str | None:
    fn = call.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return None


@register
class ThreadHygieneChecker(Checker):
    rule = "thread-hygiene"
    code = "TH601"
    description = (
        "no mutable default arguments (cross-thread state leakage), no "
        "daemon threads without an explicit shutdown/join path, and no "
        "engine threads outside QueryExecutor._fan_out / the Tuple Mover"
    )

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(ctx, node)
            elif isinstance(node, ast.Call):
                callee = _callee_name(node)
                if callee == "Thread":
                    yield from self._check_thread(ctx, node)
                if callee in ("Thread", "ThreadPoolExecutor"):
                    yield from self._check_site(ctx, node, callee)
            elif isinstance(node, ast.Assign):
                yield from self._check_daemon_assign(ctx, node)

    def _check_defaults(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterable[Violation]:
        defaults = list(fn.args.defaults) + [
            d for d in fn.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield self.violation(
                    ctx,
                    default,
                    f"mutable default argument in {fn.name}(); the default is "
                    "shared across calls and threads — use None and create "
                    "the container inside the function",
                )

    def _check_thread(self, ctx: FileContext, call: ast.Call) -> Iterable[Violation]:
        for kw in call.keywords:
            if (
                kw.arg == "daemon"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                yield self.violation(
                    ctx,
                    call,
                    "daemon thread spawned; daemons die mid-mutation at "
                    "interpreter exit — manage the lifetime with join()/"
                    "shutdown() instead (suppress with a justification if a "
                    "background sentinel is truly intended)",
                )

    def _check_site(
        self, ctx: FileContext, call: ast.Call, callee: str
    ) -> Iterable[Violation]:
        if not ctx.relpath.startswith(ENGINE_PREFIX):
            return
        if (ctx.relpath, ctx.symbol_at(call.lineno)) in ENGINE_THREAD_SITES:
            return
        yield self.violation(
            ctx,
            call,
            f"{callee}() in the query engine outside its thread sites "
            "(QueryExecutor._fan_out, TupleMover.notify) — run the work as "
            "a _fan_out task instead of starting threads of its own",
        )

    def _check_daemon_assign(self, ctx: FileContext, stmt: ast.Assign) -> Iterable[Violation]:
        for target in stmt.targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "daemon"
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is True
            ):
                yield self.violation(
                    ctx,
                    stmt,
                    "thread marked daemon=True; daemons die mid-mutation at "
                    "interpreter exit — prefer an explicit join()/shutdown() path",
                )
