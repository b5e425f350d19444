"""Command line of the benchmark.

``python3 -m bench --workload <name> --seed <n> --seconds <s> --trace <0|1>``
prints every metric by name and unit, then, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs the five workloads one after the
other, each in its own process (so one workload's peak RSS does not carry
into the next), untraced and then traced, and prints the combined report.

Run as a program, the process first pins itself to one CPU.  The program's
per-statement thread pools fight over the interpreter lock when they are
spread over two cores: `olap` then runs half as fast and its run-to-run
spread triples (bench/BASELINE.md), which no bound could hold.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from bench import ROOT

WORKLOADS = ("pipeline", "scoring", "olap", "serving", "trickle")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke (tables ÷ 50) only tests the benchmark itself")
    return parser.parse_args(argv)


def print_report(result: dict) -> None:
    detail = result["detail"]
    print(f"# {detail['workload']}  seed={detail['seed']} scale={detail['scale']} "
          f"trace={int(detail['trace'])} passes={detail['passes']} "
          f"checks={detail['checks']} failed={result['failed']}")
    print(f"# environment {json.dumps(detail['environment'])}")
    print(f"# samples {json.dumps(detail['samples'])}")
    for name, reason in detail["unavailable"].items():
        print(f"# not measured (NaN): {name}: {reason}")
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, "-m", "bench", "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--scale", args.scale],
                cwd=ROOT, text=True, stdout=subprocess.PIPE)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"bench: the program under test is not in this checkout: {error}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from bench.runner import run_workload

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    print_report(result)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    # Only here, so that a caller of `main()` (the smoke test) keeps its own
    # affinity; and before numpy loads, so that its BLAS sizes its pool to
    # one thread.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(main())
