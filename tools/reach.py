"""Which functions of ``src/repro`` anything but the tests reaches.

Runs every non-test entry point of the repository, then the tier-1 suite,
each in its own process with a profile hook on every thread, and records the
``src/repro`` functions and methods that ran.  Prints the functions that only
tier-1 reaches and those that nothing reaches, with their non-blank,
non-comment line counts::

    PYTHONPATH=src python tools/reach.py          # or: make reach

The non-test entry points are ``python -m repro.harness``, every
``examples/*.py``, ``bench/test_bench.py``, ``pytest benchmarks
--benchmark-disable`` and ``tools/docscheck.py``.  Child processes the entry
points start (``tests/test_examples.py`` runs the examples that way) are
traced too: the hook is installed by a ``sitecustomize`` module put first on
``PYTHONPATH``.  Stdlib only.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"

ENTRY_POINTS: list[tuple[str, list[str]]] = [
    ("harness", ["-m", "repro.harness"]),
    *[(f"examples/{path.name}", [f"examples/{path.name}"])
      for path in sorted((ROOT / "examples").glob("*.py"))],
    ("bench/test_bench.py", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "bench/test_bench.py"]),
    ("benchmarks", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "benchmarks", "--benchmark-disable"]),
    ("docscheck", ["tools/docscheck.py"]),
]
TIER1: tuple[str, list[str]] = (
    "tier-1", ["-m", "pytest", "-q", "-p", "no:cacheprovider"])

# Installed in every traced process.  It keeps each code object that starts
# running (by id, holding a reference so no id is reused) and at exit writes
# the ``src/repro`` ones as ``[file, first line]`` to a file of its own.
_HOOK = '''
import atexit, json, os, sys, threading
_out = os.environ.get("REPRO_REACH_DIR")
if _out:
    _seen = {}
    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in _seen:
                _seen[id(code)] = code
    def _dump():
        sys.setprofile(None)
        prefix = os.environ["REPRO_REACH_SOURCE"]
        hits = sorted({(c.co_filename, c.co_firstlineno) for c in _seen.values()
                       if c.co_filename.startswith(prefix)})
        path = os.path.join(_out, "%d.json" % os.getpid())
        with open(path, "w") as handle:
            json.dump(hits, handle)
    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''


def _code_lines(path: Path) -> set[int]:
    """Numbers of the non-blank lines of ``path`` that are not comments."""
    return {number for number, line in enumerate(path.read_text().splitlines(), 1)
            if line.strip() and not line.strip().startswith("#")}


def functions() -> dict[tuple[str, int], tuple[str, set[int]]]:
    """Every function and method under ``src/repro``, keyed by
    ``(file, first line)`` as its code object reports it (the first
    decorator's line for a decorated one): ``(qualified name, code lines)``."""
    found: dict[tuple[str, int], tuple[str, set[int]]] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        lines = _code_lines(path)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    span = set(range(first, (child.end_lineno or first) + 1))
                    name = prefix + child.name
                    found[(str(path), first)] = (name, span & lines)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def run(label: str, argv: list[str], hook_dir: str) -> set[tuple[str, int]]:
    """Run one entry point traced; the ``(file, first line)`` it reached."""
    with tempfile.TemporaryDirectory(prefix="reach-") as out:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (hook_dir, str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        env["REPRO_REACH_DIR"] = out
        env["REPRO_REACH_SOURCE"] = str(SOURCE)
        env.setdefault("REPRO_TRACE_DIR", "off")
        code = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        print(f"  {label}: exit {code}", file=sys.stderr)
        reached: set[tuple[str, int]] = set()
        for dump in Path(out).glob("*.json"):
            reached.update((f, n) for f, n in json.loads(dump.read_text()))
        return reached


def _report(title: str, keys: list[tuple[str, int]],
            table: dict[tuple[str, int], tuple[str, set[int]]]) -> int:
    """Print one list of functions; the code lines they cover, each once."""
    covered: set[tuple[str, int]] = set()
    print(f"\n{title}:")
    for path, first in keys:
        name, lines = table[(path, first)]
        covered.update((path, n) for n in lines)
        print(f"  {os.path.relpath(path, ROOT)}:{first} {name} ({len(lines)})")
    return len(covered)


def main() -> int:
    table = functions()
    with tempfile.TemporaryDirectory(prefix="reach-hook-") as hook_dir:
        Path(hook_dir, "sitecustomize.py").write_text(_HOOK)
        print("non-test entry points:", file=sys.stderr)
        entry: set[tuple[str, int]] = set()
        for label, argv in ENTRY_POINTS:
            entry |= run(label, argv, hook_dir)
        tests = run(*TIER1, hook_dir)
    entry &= table.keys()
    tests &= table.keys()
    only_tests = sorted(tests - entry)
    nothing = sorted(table.keys() - entry - tests)
    only_lines = _report("reached only by tier-1", only_tests, table)
    nothing_lines = _report("reached by nothing", nothing, table)
    total_lines = sum(len(_code_lines(p)) for p in SOURCE.rglob("*.py"))
    print(f"\n{len(table)} functions in src/repro ({total_lines} code lines): "
          f"{len(entry)} reached by an entry point; "
          f"{len(only_tests)} ({only_lines} lines) only by tier-1; "
          f"{len(nothing)} ({nothing_lines} lines) by nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
