"""Score a change with the repo benchmark: alternate two trees, compare medians.

Exports two revisions into a temporary directory (``git archive``, so an
interrupted run leaves nothing registered in the repository) and runs
``python3 -m bench --workload W --trace 0`` in them in turn, parent first,
``--pairs`` times per workload.  Alternating cancels the machine's drift out
of the comparison.  For every end-to-end metric of ``BENCHMARK.json`` it
prints the median on each side, the ratio change / parent, in how many pairs
the change was better, the distance between the quartiles of the parent's
runs, and whether the change is worse than the metric's bound allows.  The
exit status is 1 when any metric is past its bound or the change fails more
operations than the parent, else 0.

Usage::

    python3 tools/benchdiff.py HEAD~1 HEAD                      # all workloads
    python3 tools/benchdiff.py HEAD . --workload pipeline --pairs 5 --seconds 8
    python3 tools/benchdiff.py HEAD~1 HEAD --append --pr 40 \\
        --archetype perf_opt --claim "pipeline pass_s at least 1.25x lower"

A side given as a directory (``.`` above) runs that tree as it is, uncommitted
edits included.  ``--append`` adds the run as one datapoint to
``BENCH_trajectory.json`` at the repository root: ``{pr, archetype, claim,
pairs, medians: {"<workload>/<metric>": {parent, change, unit}}}``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline", "scoring", "olap", "serving", "trickle")


def export(revision: str, into: Path) -> Path:
    """A tree to run ``revision`` in: the directory itself when it names
    one, else the commit exported under ``into``."""
    if Path(revision).is_dir():
        return Path(revision).resolve()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one untraced benchmark run in ``tree``: ``{correct,
    attempted, failed, metrics}``."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, text=True, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def worse_by(metric: dict, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a fraction of
    ``parent`` (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if metric["better"] == "lower" else -delta


def compare(contract: dict, workload: str, runs: list[tuple[dict, dict]]
            ) -> tuple[list[str], dict, bool]:
    """Report lines, trajectory medians and the verdict of one workload."""
    lines, medians, ok = [], {}, True
    failed = [sum(run[side]["failed"] for run in runs) for side in (0, 1)]
    if failed[1] > failed[0]:
        ok = False
        lines.append(f"{workload}: failed operations {failed[0]} -> {failed[1]}  WORSE")
    for metric in contract["end_to_end"]:
        name = metric["name"]
        values = [[run[side]["metrics"][name]["value"] for run in runs]
                  for side in (0, 1)]
        if any(v != v for side in values for v in side):   # NaN: not measured
            continue
        parent, change = (statistics.median(side) for side in values)
        wins = sum(worse_by(metric, p, c) < 0 for p, c in zip(*values))
        worse = worse_by(metric, parent, change)
        verdict = "WORSE" if worse > metric["bound"] else "ok"
        ok &= verdict == "ok"
        ratio = change / parent if parent else float("nan")
        quartiles = statistics.quantiles(values[0], n=4) if len(runs) > 1 else [0, 0, 0]
        lines.append(f"{workload + '/' + name:28s} {parent:>12.6g} {change:>12.6g} "
                     f"{ratio:>7.3f} {wins:>3d}/{len(runs)} "
                     f"{quartiles[2] - quartiles[0]:>10.3g}  "
                     f"bound {metric['bound']:.2f} {verdict}")
        medians[f"{workload}/{name}"] = {"parent": float(f"{parent:.6g}"),
                                         "change": float(f"{change:.6g}"),
                                         "unit": metric["unit"]}
    return lines, medians, ok


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="commit (or directory) to compare against")
    parser.add_argument("change", help="commit (or directory) under test")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for several; default: all five")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--append", action="store_true",
                        help="add the medians to BENCH_trajectory.json")
    parser.add_argument("--pr", type=int)
    parser.add_argument("--archetype")
    parser.add_argument("--claim")
    args = parser.parse_args(argv)
    if args.append and None in (args.pr, args.archetype, args.claim):
        parser.error("--append needs --pr, --archetype and --claim")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok, medians = True, {}
    with tempfile.TemporaryDirectory(prefix="benchdiff-") as scratch:
        trees = [export(args.parent, Path(scratch) / "parent"),
                 export(args.change, Path(scratch) / "change")]
        print(f"{'metric':28s} {'parent':>12s} {'change':>12s} {'ratio':>7s} "
              f"{'wins':>7s} {'parent IQR':>10s}")
        for workload in args.workload or WORKLOADS:
            runs = [tuple(run_bench(tree, workload, args.seed, args.seconds)
                          for tree in trees) for _ in range(args.pairs)]
            lines, found, workload_ok = compare(contract, workload, runs)
            print("\n".join(lines), flush=True)
            medians.update(found)
            ok &= workload_ok
    if args.append:
        path = ROOT / "BENCH_trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append({"pr": args.pr, "archetype": args.archetype,
                           "claim": args.claim, "pairs": args.pairs,
                           "medians": medians})
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
