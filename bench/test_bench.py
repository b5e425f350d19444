"""Smoke test of the benchmark itself (tables ÷ 50, two passes, seconds).

Not part of tier-1 (`testpaths = ["tests"]`); run it with
``python -m pytest bench/test_bench.py``.  It proves that every metric named
in `BENCHMARK.json` comes out with its unit, that every correctness check
ran and passed, and that each workload's dominant layer shows up where the
design says.  Recorded numbers always come from the full scale.
"""

from __future__ import annotations

import json
import math
import os
import re

import pytest

from bench import ROOT
from bench.__main__ import WORKLOADS, main
from bench.runner import OUT_DIR, contract, run_workload

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def runs() -> dict:
    return {(name, trace): run_workload(name, seed=3, seconds=0.5, trace=trace,
                                        scale_name="smoke")
            for name in WORKLOADS for trace in (False, True)}


def test_contract_file_is_well_formed():
    doc = contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"] and doc["command"][0] == "python3"
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in doc["workloads"])
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    runs_total = 4 + 22 * len(doc["workloads"])
    assert runs_total * (doc["run_seconds"] + 10) <= 3420


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_present_with_its_unit_and_checks_pass(runs, name):
    doc = contract()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = runs[name, trace]
        want = {m["name"]: m["unit"] for m in doc[section]}
        got = {key: metric["unit"] for key, metric in result["metrics"].items()}
        assert got == want
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1 and result["detail"]["checks"] >= 1
        assert result["detail"]["passes"] >= 2
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    # An end-to-end metric is never 0 on any workload.
    assert all(m["value"] > 0 for m in runs[name, False]["metrics"].values())


def value(runs, name, metric):
    return runs[name, True]["metrics"][metric]["value"]


def test_dominant_layers_show_where_designed(runs):
    pipeline = sum(value(runs, "pipeline", f"share.{layer}_pct")
                   for layer in ("storage", "transfer", "algorithms"))
    assert pipeline >= 60 and value(runs, "pipeline", "share.predict_pct") < 40
    for other in ("scoring", "olap"):
        for layer in ("storage", "transfer", "dr", "algorithms"):
            assert value(runs, other, f"share.{layer}_pct") == 0
        assert value(runs, other, "transfer.frames") == 0
    assert value(runs, "scoring", "share.predict_pct") > 80
    assert value(runs, "olap", "share.executor_pct") > 80
    assert value(runs, "olap", "joins.rows_produced") > 0
    assert value(runs, "pipeline", "transfer.frames") > 0
    assert value(runs, "pipeline", "algorithms.glm_iterations") >= 1
    for name in WORKLOADS:
        hit_ratio = value(runs, name, "serving.result_cache_hit_ratio")
        inserts = value(runs, name, "txn.inserts_per_s")
        assert (hit_ratio > 0) == (name == "serving")
        assert (inserts > 0) == (name in ("serving", "trickle"))
        assert (value(runs, name, "txn.write_amp") > 0) == (name == "trickle")
        assert (value(runs, name, "pruning.pruned_ratio") > 0) == (
            name in ("scoring", "olap"))
        # Probes run on every workload's own table.
        assert value(runs, name, "storage.encode_mb_per_s") > 0
        assert value(runs, name, "sql.parse_us") > 0


def test_mover_passes_are_the_benchmarks_own(runs):
    for trace in (False, True):
        passes = runs["trickle", trace]["detail"]["mover_passes"]
        assert passes["benchmark"] == passes["program"]
        assert passes["benchmark"][0] == 4 * passes["benchmark"][1] > 0


def test_traced_run_writes_spans(runs):
    spans = json.loads((OUT_DIR / "spans_trickle_seed3.json").read_text())
    assert spans and all(
        set(span) == {"name", "layer", "start", "end", "parent", "workload", "pass"}
        for span in spans)
    roots = [s for s in spans if s["parent"] is None]
    assert roots and all(s["name"] == "pass" for s in roots)
    assert all(s["end"] >= s["start"] for s in spans)


def test_same_seed_same_inputs_and_exact_counts():
    first = run_workload("olap", seed=5, seconds=0.2, trace=True, scale_name="smoke")
    again = run_workload("olap", seed=5, seconds=0.2, trace=True, scale_name="smoke")
    for metric in ("executor.rows_scanned", "executor.batches_scanned",
                   "pruning.pruned_ratio", "joins.rows_produced",
                   "storage.bytes_per_row"):
        assert first["metrics"][metric] == again["metrics"][metric]


def test_a_removed_entry_point_reads_nan_with_its_reason(monkeypatch):
    import repro.transfer.streams as streams

    monkeypatch.delattr(streams, "encode_frame")   # olap never transfers
    result = run_workload("olap", seed=5, seconds=0.2, trace=True, scale_name="smoke")
    lost = result["detail"]["unavailable"]
    assert set(lost) == {"transfer.encode_frame_mb_per_s",
                         "transfer.decode_frames_mb_per_s"}
    assert all("encode_frame" in reason for reason in lost.values())
    for name, metric in result["metrics"].items():
        assert math.isnan(metric["value"]) == (name in lost)
    assert result["correct"] and result["metrics"]["storage.encode_mb_per_s"]["value"] > 0


def test_a_bug_inside_a_probe_is_not_taken_for_a_missing_entry_point(monkeypatch):
    from repro.storage import RowGroup

    def broken(*args, **kwargs):
        raise AttributeError("a genuine bug in the program")

    monkeypatch.setattr(RowGroup, "read", broken)
    with pytest.raises(AttributeError, match="genuine bug"):
        run_workload("trickle", seed=5, seconds=0.2, trace=True, scale_name="smoke")


# docs/api_overview.md, plus docs/mvcc.md for `cluster.tuple_mover`,
# `advance_ahm` and `current_epoch`.
DOCUMENTED = {"repro", "repro.vertica", "repro.vertica.sql", "repro.storage",
              "repro.transfer", "repro.dr", "repro.algorithms", "repro.deploy",
              "repro.serving", "repro.obs"}
# Entry points only the lazy probes reach; losing one costs its own metrics.
PROBED = {"repro.vertica.sql.analyzer", "repro.transfer.streams"}
IMPORT = re.compile(r"^\s*(?:from\s+(repro[\w.]*)\s+import|import\s+(repro[\w.]*))")


def test_only_the_documented_surface_is_imported():
    seen = set()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        if path.name == "test_bench.py":
            continue
        allowed = DOCUMENTED | PROBED if path.name == "probes.py" else DOCUMENTED
        text = path.read_text()
        for line in text.splitlines():
            found = IMPORT.match(line)
            if found:
                module = found.group(1) or found.group(2)
                seen.add(module)
                assert module in allowed, (path.name, line.strip())
        assert "telemetry" not in text and "PipelineConfig" not in text, path
    assert PROBED <= seen


def test_command_line_prints_the_result_as_its_last_line(capsys):
    affinity = os.sched_getaffinity(0)
    assert main(["--workload", "scoring", "--scale", "smoke", "--seconds", "0.2",
                 "--seed", "2", "--trace", "0"]) == 0
    assert os.sched_getaffinity(0) == affinity   # only `python3 -m bench` pins
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
