"""Tests for the queueing model of prediction fan-out (the Figs 15/16
mechanism)."""

import pytest

from repro.errors import SimulationError
from repro.perfmodel import model_in_db_prediction, simulate_prediction_fanout

# What the discrete-event simulation that preceded the closed-form fan-out
# returned, as (rows, kind, nodes, instances_per_node, skew, total_seconds):
# the Fig 15/16 sizes, instances below / at / above the 12 physical cores,
# and skew.
FANOUT_PINS = [
    (1e7, "kmeans", 5, 12, None, 14.58),
    (1e7, "glm", 5, 12, None, 13.46),
    (1e8, "kmeans", 5, 12, None, 42.3),
    (1e8, "glm", 5, 12, None, 31.099999999999998),
    (5e8, "kmeans", 5, 12, None, 165.5),
    (5e8, "glm", 5, 12, None, 109.49999999999999),
    (1e9, "kmeans", 5, 12, None, 319.5),
    (1e9, "glm", 5, 12, None, 207.49999999999997),
    (1e9, "kmeans", 5, 1, None, 3707.5),
    (1e9, "kmeans", 5, 4, None, 935.5),
    (1e9, "kmeans", 5, 11, None, 347.5),
    (1e9, "kmeans", 5, 13, None, 581.6153846153845),
    (1e9, "kmeans", 5, 24, None, 321.0),
    (1e9, "kmeans", 5, 25, None, 458.02),
    (1e9, "kmeans", 5, 48, None, 324.0),
    (1e9, "kmeans", 5, 12, [3, 1, 1, 1, 1], 671.5),
    (1e9, "glm", 5, 25, [3, 1, 1, 1, 1], 619.3000000000001),
]


@pytest.mark.parametrize("rows, kind, nodes, instances, skew, seconds", FANOUT_PINS)
def test_matches_recorded_simulation(rows, kind, nodes, instances, skew, seconds):
    result = simulate_prediction_fanout(
        rows, kind, nodes, instances_per_node=instances, skew=skew)
    assert result.total_seconds == seconds


class TestPredictionFanoutDes:
    def test_converges_to_analytic_model_at_full_parallelism(self):
        """With one instance per physical core, the DES reproduces the
        analytic (calibrated) model."""
        analytic = model_in_db_prediction(1e9, "kmeans", 5).total_seconds
        des = simulate_prediction_fanout(
            1e9, "kmeans", 5, instances_per_node=12).total_seconds
        assert des == pytest.approx(analytic, rel=0.05)

    def test_under_fanout_wastes_cores(self):
        one = simulate_prediction_fanout(1e9, "glm", 5, instances_per_node=1)
        twelve = simulate_prediction_fanout(1e9, "glm", 5, instances_per_node=12)
        assert one.total_seconds > 8 * twelve.total_seconds

    def test_over_fanout_only_adds_model_load_overhead(self):
        """Past the core count instances queue: no speedup, slight cost —
        the planner's reason for bounding PARTITION BEST parallelism."""
        at_cores = simulate_prediction_fanout(
            1e9, "kmeans", 5, instances_per_node=12).total_seconds
        over = simulate_prediction_fanout(
            1e9, "kmeans", 5, instances_per_node=48).total_seconds
        assert over >= at_cores
        assert over < at_cores * 1.1

    def test_skewed_tables_break_linear_speedup(self):
        """'When the table is well partitioned ... a near linear speedup can
        be achieved' — and conversely skew breaks it."""
        balanced = simulate_prediction_fanout(
            1e9, "kmeans", 5, instances_per_node=12).total_seconds
        skewed = simulate_prediction_fanout(
            1e9, "kmeans", 5, instances_per_node=12,
            skew=[3, 1, 1, 1, 1]).total_seconds
        assert skewed > 1.5 * balanced

    def test_model_load_cost_scales_with_fanout(self):
        cheap = simulate_prediction_fanout(
            1e6, "glm", 5, instances_per_node=12, model_load_s=0.0)
        heavy = simulate_prediction_fanout(
            1e6, "glm", 5, instances_per_node=12, model_load_s=10.0)
        assert heavy.total_seconds - cheap.total_seconds == pytest.approx(
            10.0, abs=0.5)

    def test_more_nodes_still_speed_up(self):
        five = simulate_prediction_fanout(1e9, "glm", 5).total_seconds
        ten = simulate_prediction_fanout(1e9, "glm", 10).total_seconds
        assert ten < five

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            simulate_prediction_fanout(1e6, "svm", 5)
        with pytest.raises(SimulationError):
            simulate_prediction_fanout(1e6, "glm", 5, instances_per_node=0)
        with pytest.raises(SimulationError):
            simulate_prediction_fanout(1e6, "glm", 2, skew=[1.0])
