"""Shared benchmark fixtures and helpers.

Every benchmark has two layers:

* a **real run** through the functional engines at laptop scale, timed by
  pytest-benchmark, with the paper's qualitative shape asserted (who wins,
  does it scale, where does it plateau);
* the **paper-scale replay** through :mod:`repro.perfmodel`, attached to the
  benchmark's ``extra_info`` so the JSON output records the modelled
  paper-scale series next to the measured laptop-scale timing.

Every benchmark run can also leave a trace artifact behind: the autouse
``export_trace`` fixture below collects the spans recorded by every live
tracer during the test and writes one chrome-trace-compatible JSON file per
benchmark under ``benchmarks/.traces/`` (override with ``REPRO_TRACE_DIR``,
disable with ``REPRO_TRACE_DIR=off``).  Load a file in ``about:tracing`` or
Perfetto, or read the ``spans``/``metrics`` keys directly — see
``docs/observability.md``.

Next to those traces, the autouse ``bench_datapoint`` fixture writes one
``BENCH_<figure>.json`` per benchmark module (``<figure>`` is the module
stem minus its ``bench_`` prefix): a list of datapoints carrying each
test's wall time and the non-zero metric deltas it produced, so a harness
can diff figures across runs without parsing chrome traces.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs.export import write_trace_artifact
from repro.obs.metrics import all_registries
from repro.obs.trace import all_tracers
from repro.vertica import HashSegmentation, VerticaCluster


@pytest.fixture(autouse=True)
def export_trace(request):
    """Write one trace artifact per benchmark (chrome-trace + spans + metrics).

    Collects the root spans every live tracer recorded *during* this test
    and bundles them with a snapshot of every live metrics registry.  Set
    ``REPRO_TRACE_DIR`` to choose the output directory, or ``off`` to skip.
    """
    trace_dir = os.environ.get("REPRO_TRACE_DIR", "")
    if trace_dir.lower() == "off":
        yield
        return
    t0 = time.perf_counter()
    yield
    roots = [
        root
        for tracer in all_tracers()
        for root in tracer.roots()
        if root.start >= t0
    ]
    if not roots:
        return
    out_dir = Path(trace_dir) if trace_dir else Path(__file__).parent / ".traces"
    name = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.nodeid)
    write_trace_artifact(
        out_dir / f"{name}.trace.json",
        roots,
        registries=all_registries(),
        meta={"test": request.node.nodeid},
    )


def _summed_metrics() -> dict[str, float]:
    """One flat name→value dict summed across every live registry."""
    totals: dict[str, float] = {}
    for registry in all_registries():
        for name, value in registry.snapshot().items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


#: Figures whose BENCH_*.json has been truncated this session, so repeated
#: runs replace stale datapoints instead of appending to them forever.
_BENCH_RESET: set[Path] = set()


@pytest.fixture(autouse=True)
def bench_datapoint(request):
    """Append one datapoint to this module's ``BENCH_<figure>.json``.

    A datapoint is the test's wall time plus the non-zero metric deltas it
    produced (summed across every live registry; instruments created during
    the test count from zero).  Files land next to the chrome-trace
    artifacts and honor the same ``REPRO_TRACE_DIR`` override / ``off``
    switch.  Peak/watermark keys are deliberately kept: a drop in
    ``peak_batch_bytes`` between runs is as much a regression signal as a
    slowdown.
    """
    trace_dir = os.environ.get("REPRO_TRACE_DIR", "")
    if trace_dir.lower() == "off":
        yield
        return
    before = _summed_metrics()
    t0 = time.perf_counter()
    yield
    wall = time.perf_counter() - t0
    deltas = {}
    for name, value in sorted(_summed_metrics().items()):
        delta = value - before.get(name, 0.0)
        if delta:
            deltas[name] = delta
    figure = re.sub(r"^bench_", "", request.node.path.stem)
    out_dir = Path(trace_dir) if trace_dir else Path(__file__).parent / ".traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{figure}.json"
    if out_path in _BENCH_RESET and out_path.exists():
        doc = json.loads(out_path.read_text())
    else:
        doc = {"figure": figure, "datapoints": []}
        _BENCH_RESET.add(out_path)
    datapoint = {
        "test": request.node.nodeid,
        "wall_seconds": round(wall, 6),
        "metrics": deltas,
    }
    # Derived figures a benchmark computed itself (QPS, percentiles, ...)
    # arrive via pytest's record_property and ride along in the datapoint.
    if request.node.user_properties:
        properties = {
            key: value for key, value in request.node.user_properties
        }
        # Accuracy is a headline figure for approximate-query benchmarks:
        # promote it so harnesses can threshold it without digging into
        # per-test properties.
        if "realized_error" in properties:
            datapoint["realized_error"] = properties["realized_error"]
        datapoint["properties"] = properties
    doc["datapoints"].append(datapoint)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def build_numeric_table(node_count: int, rows: int, features: int, seed: int = 0,
                        table: str = "bench") -> tuple[VerticaCluster, list[str]]:
    """A hash-segmented numeric table for transfer/prediction benchmarks."""
    rng = np.random.default_rng(seed)
    columns = {"k": rng.integers(0, 1_000_000, rows)}
    names = []
    for j in range(features):
        name = f"c{j}"
        names.append(name)
        columns[name] = rng.normal(size=rows)
    cluster = VerticaCluster(node_count=node_count)
    cluster.create_table_like(table, columns, HashSegmentation("k"))
    cluster.bulk_load(table, columns)
    return cluster, names


def inflight_bytes_bound(cluster: VerticaCluster) -> float:
    """The most the cluster's UDTF statements so far can have had in flight:
    every instance's queue full, plus per node one batch in the source
    hand-over and one in a consumer's hands — never a node's segment."""
    metrics = cluster.metrics
    batches = (metrics.counter("udtf_instances").value * cluster.pipeline.queue_depth
               + 2 * cluster.node_count)
    return batches * metrics.gauge("peak_batch_bytes").peak


@pytest.fixture(scope="session")
def paper_profile():
    from repro.perfmodel import SL390

    return SL390
