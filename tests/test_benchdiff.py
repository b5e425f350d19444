"""``tools/benchdiff.py``: the verdict it draws from paired benchmark runs."""

import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import benchdiff  # noqa: E402

CONTRACT = {"end_to_end": [
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "load_rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.25},
    {"name": "read_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]}


def run(pass_s: float, load: float, failed: int = 0) -> dict:
    return {"correct": not failed, "attempted": 10, "failed": failed, "metrics": {
        "pass_s": {"value": pass_s, "unit": "s"},
        "load_rows_per_s": {"value": load, "unit": "rows/s"},
        "read_p50_ms": {"value": math.nan, "unit": "ms"},
    }}


def test_medians_ratios_and_wins():
    runs = [(run(1.0, 100.0), run(0.5, 200.0)),
            (run(1.2, 100.0), run(0.6, 90.0)),
            (run(0.9, 100.0), run(1.0, 210.0))]
    lines, medians, ok = benchdiff.compare(CONTRACT, "w", runs)
    assert ok
    assert medians == {
        "w/pass_s": {"parent": 1.0, "change": 0.6, "unit": "s"},
        "w/load_rows_per_s": {"parent": 100.0, "change": 200.0, "unit": "rows/s"},
    }   # read_p50_ms is NaN on both sides: not measured, not reported
    assert " 2/3 " in lines[0] and " 2/3 " in lines[1]


def test_a_metric_past_its_bound_fails_in_either_direction():
    slower = [(run(1.0, 100.0), run(1.3, 100.0))]
    assert not benchdiff.compare(CONTRACT, "w", slower)[2]
    fewer_rows = [(run(1.0, 100.0), run(1.0, 70.0))]
    assert not benchdiff.compare(CONTRACT, "w", fewer_rows)[2]
    inside = [(run(1.0, 100.0), run(1.2, 80.0))]
    assert benchdiff.compare(CONTRACT, "w", inside)[2]


def test_more_failed_operations_fail():
    lines, _, ok = benchdiff.compare(
        CONTRACT, "w", [(run(1.0, 100.0), run(1.0, 100.0, failed=1))])
    assert not ok and "failed operations 0 -> 1" in lines[0]


def test_a_directory_side_runs_in_place(tmp_path):
    assert benchdiff.export(str(tmp_path), tmp_path / "unused") == tmp_path
    assert not (tmp_path / "unused").exists()
