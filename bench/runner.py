"""Runs one workload and assembles its metrics.

Untraced (`trace=False`): set-up is repeated `setup_repeats` times, passes
run for `seconds`, and the end-to-end metrics are reported.  Traced: one
set-up, passes alternate untraced/traced so that drift cancels out of
`obs.trace_overhead_ratio`, the layer probes run after the last pass, the
spans are written to `bench/.out/` and the per-layer metrics are reported.
Correctness checks run in both modes.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import subprocess
import time

import numpy as np

from bench import ROOT
from bench.harness import (Recorder, geomean, median, peak_rss_mb, percentile,
                           rate, warn)
from bench.workloads.common import SCALES

OUT_DIR = ROOT / "bench" / ".out"


def workload_classes() -> dict:
    from bench.workloads.olap import Olap
    from bench.workloads.pipeline import Pipeline
    from bench.workloads.scoring import Scoring
    from bench.workloads.serving import Serving
    from bench.workloads.trickle import Trickle

    return {cls.name: cls for cls in (Pipeline, Scoring, Olap, Serving, Trickle)}


def contract() -> dict:
    """`BENCHMARK.json` is the one list of metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale_name: str = "full") -> dict:
    scale = SCALES[scale_name]
    units = {m["name"]: m["unit"]
             for m in contract()["per_layer" if trace else "end_to_end"]}
    workload = workload_classes()[name](seed, scale)
    rec = Recorder(name)

    setups = []
    for attempt in range(1 if trace else scale.setup_repeats):
        if attempt:
            workload.teardown()
            gc.collect()   # else the old database lingers and peak RSS wobbles
        start = time.perf_counter()
        workload.setup(rec)
        setups.append(time.perf_counter() - start)

    try:
        deadline = time.perf_counter() + seconds
        index = 0
        while index < scale.min_passes or time.perf_counter() < deadline:
            rec.begin_pass(index, tracing=trace and index % 2 == 1)
            rec.end_pass(workload.run_pass(rec, index))
            index += 1
            if index == scale.min_passes:
                # After a fixed amount of work: a faster commit fits more
                # passes into the run and must not read as a bigger one.
                rss_mb = peak_rss_mb()
        workload.finish(rec, trace)
        unavailable: dict[str, str] = {}
        if trace:
            metrics, unavailable = layer_metrics(workload, rec, scale, list(units))
            rec.write_spans(OUT_DIR, seed)
        else:
            metrics = end_to_end_metrics(workload, rec, setups, rss_mb)
    finally:
        workload.teardown()

    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    for what in rec.failures:
        warn(f"{name}: {what}")
    for metric, reason in unavailable.items():
        warn(f"{name}: {metric} not measured ({reason})")
    return {
        "correct": rec.failed == 0 and rec.checks > 0,
        "attempted": rec.operations,
        "failed": rec.failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]}
                    for key in units},
        "detail": {
            "workload": name, "seed": seed, "scale": scale_name, "trace": trace,
            "seconds": seconds, "passes": len(rec.pass_seconds),
            "checks": rec.checks,
            "samples": {step: len(values) for step, values in sorted(rec.samples.items())},
            "mover_passes": workload.mover_passes,
            "unavailable": unavailable,
            "environment": environment(),
        },
    }


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": sha or None}


def end_to_end_metrics(workload, rec: Recorder, setups: list[float],
                       rss_mb: float) -> dict[str, float]:
    reads = rec.read_samples()
    if workload.tail == "p95":
        tail = percentile(reads, 95)
    else:
        # Too few samples per pass for a percentile: the median of the
        # slowest read statement stands in for the tail.
        tail = max(rec.median_s(step) for step in rec.read_steps)
    return {
        "setup_s": median(setups),
        "pass_s": median(rec.pass_seconds),
        "step_geomean_ms": 1e3 * geomean(rec.median_s(step)
                                         for step in workload.geomean_steps),
        "read_p50_ms": 1e3 * rec.typical_read_s(),
        "read_tail_ms": 1e3 * tail,
        "load_rows_per_s": workload.load_rows_per_s(rec),
        "peak_rss_mb": rss_mb,
        "space_amp": workload.space_amp(),
    }


def layer_metrics(workload, rec: Recorder, scale, names: list[str]
                  ) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer metric, and why for those that could not be measured.
    0 means the workload did no such work: no frames sent, no share of the
    pass, no statements per second.  NaN means a probe's entry point is
    gone from the program."""
    from bench.probes import run_probes

    metrics = dict.fromkeys(names, 0.0)
    metrics.update({f"share.{layer}_pct": share
                    for layer, share in rec.layer_shares().items()})
    metrics["obs.trace_overhead_ratio"] = trace_overhead_ratio(rec)
    metrics.update(counter_metrics(rec))
    metrics.update(workload.layer_metrics(rec))
    probed, unavailable = run_probes(workload, rec, scale)
    metrics.update(probed)
    metrics.update(dict.fromkeys(unavailable, math.nan))
    return metrics, unavailable


def trace_overhead_ratio(rec: Recorder) -> float:
    """Each traced pass against the mean of the untraced passes on either
    side of it, so that a workload whose passes drift (a growing table, a
    machine slowing down) does not read as tracing overhead."""
    seconds = rec.pass_seconds
    ratios = []
    for index, traced in enumerate(rec.pass_traced):
        if traced:
            around = seconds[index - 1:index] + seconds[index + 1:index + 2]
            ratios.append(seconds[index] * len(around) / sum(around))
    return median(ratios)


def counter_metrics(rec: Recorder) -> dict[str, float]:
    """Counts of the first traced pass (exact for a given seed) and the
    ratios between them."""
    c = rec.pass_counts or {}
    get = lambda name: c.get(name, 0.0)   # noqa: E731
    plan = get("plan_cache_hits") + get("plan_cache_misses")
    result = get("result_cache_hits") + get("result_cache_misses")
    within = get("aqp_rewrites") + get("aqp_fallbacks")
    vft_seconds = get("vft_db_seconds") + get("vft_r_seconds")
    return {
        "executor.rows_scanned": get("rows_scanned"),
        "executor.batches_scanned": get("batches_scanned"),
        "executor.examined_per_returned": rate(get("rows_scanned"), rec.rows_returned),
        "joins.rows_scanned": get("join_rows_scanned"),
        "joins.rows_produced": get("join_rows_produced"),
        "transfer.frames": get("vft_frames_received"),
        "transfer.retries": get("transfer_retries"),
        "transfer.wire_bytes_per_row": rate(get("vft_bytes_sent"), get("vft_rows_sent")),
        "transfer.db_share": rate(get("vft_db_seconds"), vft_seconds),
        "dr.tasks": get("dr_tasks"),
        "dr.remote_fetches": get("dr_remote_partition_fetches"),
        "deploy.udtf_instances": get("udtf_instances"),
        "serving.plan_cache_hit_ratio": rate(get("plan_cache_hits"), plan),
        "serving.result_cache_hit_ratio": rate(get("result_cache_hits"), result),
        "serving.rejected": get("statements_rejected"),
        "aqp.rewrite_ratio": rate(get("aqp_rewrites"), within),
    }
