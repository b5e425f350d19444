"""Ablation: UDF instance fan-out for in-database prediction.

Sweeps the per-node instance count through the queueing model of the
prediction fan-out (Figs 15/16 mechanism): under-fanning wastes cores, over-fanning
only adds per-instance model-load overhead — quantifying why the planner
bounds `PARTITION BEST` parallelism by available resources.
"""

import pytest

from repro.perfmodel import model_in_db_prediction, simulate_prediction_fanout

INSTANCE_SWEEP = (1, 2, 4, 8, 12, 24, 48)


def test_ablation_fanout_sweep(benchmark):
    def sweep():
        return {
            instances: simulate_prediction_fanout(
                1e9, "kmeans", 5, instances_per_node=instances).total_seconds
            for instances in INSTANCE_SWEEP
        }

    results = benchmark(sweep)
    benchmark.extra_info.update(
        {f"fanout_{k}_s": round(v, 1) for k, v in results.items()})
    # Monotone improvement up to the physical core count...
    assert results[1] > results[4] > results[12]
    # ...then flat (within model-load noise).
    assert results[48] < results[12] * 1.1


def test_ablation_fanout_matches_calibrated_model_at_cores():
    analytic = model_in_db_prediction(1e9, "glm", 5).total_seconds
    des = simulate_prediction_fanout(
        1e9, "glm", 5, instances_per_node=12).total_seconds
    assert des == pytest.approx(analytic, rel=0.05)


def test_ablation_model_load_dominates_small_tables():
    """On small tables, fan-out cost is all model deserialization — the
    reason the deployed-model cache exists."""
    cached = simulate_prediction_fanout(
        1e5, "glm", 5, instances_per_node=12, model_load_s=0.05)
    uncached = simulate_prediction_fanout(
        1e5, "glm", 5, instances_per_node=12, model_load_s=5.0)
    # The scan component (everything past query planning) is dominated by
    # the per-instance model load when the table is small.
    assert uncached.scan_seconds > 10 * cached.scan_seconds
