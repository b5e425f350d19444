"""Tests for the paper-scale performance models: calibration and shape.

The important assertions here are the paper's *qualitative* claims — who
wins, by what factor, and where behaviour changes — evaluated on the
calibrated models.  These are the claims the reproduction must preserve
even where absolute numbers cannot be matched.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.perfmodel import (
    SL390,
    model_end_to_end_kmeans,
    model_in_db_prediction,
    model_kmeans_iteration_blas,
    model_kmeans_iteration_dr,
    model_kmeans_iteration_r,
    model_regression_dr,
    model_regression_r,
    model_spark_kmeans_iteration,
    model_vft_transfer,
    scaled_profile,
    simulate_odbc_transfer,
    simulate_prediction_fanout,
    validate_calibration,
)

# What the discrete-event simulation that preceded the closed-form ODBC
# model returned, as (GB, nodes, connections, skew, total_seconds,
# peak_queue_depth, mean_slot_utilization): the Fig 1/12/13 configs, K
# below / at / one past / 2·slots+1 past the 4 scan slots, and skew.
ODBC_PINS = [
    (50, 5, 1, None, 3200.5, 0, 0.0854241524761756),
    (50, 5, 120, None, 678.5000000000003, 580, 0.9992630803242545),
    (100, 5, 1, None, 6400.5, 0, 0.08543082571674088),
    (100, 5, 120, None, 1356.5000000000007, 580, 0.9996314043494384),
    (150, 5, 1, None, 9600.5, 0, 0.08543305036196032),
    (150, 5, 120, None, 2034.499999999999, 580, 0.9997542393708555),
    (100, 12, 288, None, 1041.500000000001, 3408, 0.9995199231877449),
    (200, 12, 288, None, 2082.500000000002, 3408, 0.9997599039616194),
    (300, 12, 288, None, 3123.5, 3408, 0.9998399231631183),
    (400, 12, 288, None, 4164.500000000004, 3408, 0.9998799375675699),
    (10, 3, 1, None, 640.5, 0, 0.14228467343221443),
    (10, 3, 3, None, 213.83333333333331, 0, 0.43678877630553387),
    (10, 3, 4, None, 160.5, 0, 0.5889927310488058),
    (10, 3, 5, None, 153.56666666666666, 3, 0.6229650531799434),
    (10, 3, 9, None, 134.1, 15, 0.7472035794183443),
    (100, 4, 32, [5.0, 1.0, 1.0, 1.0], 2368.0, 112, 0.3999155405405405),
    (100, 4, 9, [5.0, 1.0, 1.0, 1.0], 2505.5, 20, 0.2999401317102375),
]

BAD_SKEWS = [
    pytest.param([0.0, 0.0], id="zero-sum"),
    pytest.param([-1.0, 2.0], id="negative"),
    pytest.param([math.nan, 1.0], id="nan"),
    pytest.param([math.inf, 1.0], id="inf"),
    pytest.param([1.0, 1.0, 1.0], id="wrong-length"),
]


class TestCalibration:
    def test_every_observation_within_tolerance(self):
        report = validate_calibration()
        misses = [r for r in report if not r["within_tolerance"]]
        assert not misses, f"calibration misses: {misses}"

    def test_held_out_points_exist(self):
        held_out = validate_calibration(held_out_only=True)
        assert len(held_out) >= 5, "need genuine held-out validation points"

    def test_held_out_points_all_pass(self):
        held_out = validate_calibration(held_out_only=True)
        assert all(r["within_tolerance"] for r in held_out)


class TestOdbcModel:
    def test_single_connection_50gb_takes_about_an_hour(self):
        result = simulate_odbc_transfer(50, 5, 1)
        assert 45 <= result.minutes <= 70

    def test_parallel_connections_help_sublinearly(self):
        """120 connections are nowhere near 120x faster — the overwhelm."""
        single = simulate_odbc_transfer(50, 5, 1).total_seconds
        parallel = simulate_odbc_transfer(50, 5, 120).total_seconds
        speedup = single / parallel
        assert 2 <= speedup <= 20

    def test_more_connections_eventually_hurt(self):
        """The probe cost makes huge connection counts slower again."""
        at_40 = simulate_odbc_transfer(150, 5, 40).total_seconds
        at_480 = simulate_odbc_transfer(150, 5, 480).total_seconds
        assert at_480 > at_40

    def test_time_scales_linearly_with_size(self):
        t50 = simulate_odbc_transfer(50, 5, 120).total_seconds
        t150 = simulate_odbc_transfer(150, 5, 120).total_seconds
        assert t150 / t50 == pytest.approx(3.0, rel=0.15)

    def test_queueing_visible_at_high_concurrency(self):
        result = simulate_odbc_transfer(100, 5, 120)
        assert result.peak_queue_depth > 50
        assert result.mean_slot_utilization > 0.5

    def test_skewed_segments_extend_makespan(self):
        uniform = simulate_odbc_transfer(100, 4, 32).total_seconds
        skewed = simulate_odbc_transfer(
            100, 4, 32, segment_skew=[5.0, 1.0, 1.0, 1.0]
        ).total_seconds
        assert skewed > uniform

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            simulate_odbc_transfer(0, 5, 1)
        with pytest.raises(SimulationError):
            simulate_odbc_transfer(50, 5, 1, segment_skew=[1.0])


class TestOdbcQueueingPins:
    @pytest.mark.parametrize(
        "gb, nodes, connections, skew, seconds, peak, utilization", ODBC_PINS)
    def test_matches_recorded_simulation(self, gb, nodes, connections, skew,
                                         seconds, peak, utilization):
        result = simulate_odbc_transfer(gb, nodes, connections, segment_skew=skew)
        assert result.total_seconds == seconds
        assert result.peak_queue_depth == peak
        assert result.mean_slot_utilization == pytest.approx(utilization, abs=1e-12)


class TestSkewValidation:
    """Every skew-taking model rejects a weight vector that cannot split
    rows across nodes, with the same error."""

    MODELS = {
        "odbc": lambda skew: simulate_odbc_transfer(10, 2, 4, segment_skew=skew),
        "vft": lambda skew: model_vft_transfer(10, 2, 4, segment_skew=skew),
        "fanout": lambda skew: simulate_prediction_fanout(1e6, "glm", 2, skew=skew),
        "kmeans": lambda skew: model_kmeans_iteration_dr(1e6, 10, 5, nodes=2, skew=skew),
        "regression": lambda skew: model_regression_dr(1e6, 10, nodes=2, skew=skew),
    }

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("skew", BAD_SKEWS)
    def test_bad_weights_rejected(self, model, skew):
        with pytest.raises(SimulationError):
            self.MODELS[model](skew)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_zero_weight_node_allowed(self, model):
        assert self.MODELS[model]([0.0, 1.0]).total_seconds > 0


class TestVftModel:
    def test_headline_6x_over_odbc(self):
        """The abstract's claim: transfers ~6x faster than ODBC."""
        odbc = simulate_odbc_transfer(150, 5, 120).total_seconds
        vft = model_vft_transfer(150, 5, 24).total_seconds
        assert 4 <= odbc / vft <= 10

    def test_400gb_under_10_minutes(self):
        assert model_vft_transfer(400, 12, 24).minutes < 10

    def test_db_component_constant_in_instances(self):
        times = [model_vft_transfer(400, 12, i).db_seconds for i in (2, 8, 24)]
        assert max(times) - min(times) < 1e-9

    def test_r_component_shrinks_with_instances(self):
        r2 = model_vft_transfer(400, 12, 2).r_seconds
        r12 = model_vft_transfer(400, 12, 12).r_seconds
        assert r12 < r2 / 4

    def test_r_component_plateaus_past_physical_cores(self):
        r12 = model_vft_transfer(400, 12, 12).r_seconds
        r24 = model_vft_transfer(400, 12, 24).r_seconds
        assert r24 == pytest.approx(r12)

    def test_half_time_in_r_at_two_instances(self):
        """Fig 14: 'almost half of the transfer time is spent in buffering
        data and converting into R objects' at low parallelism."""
        result = model_vft_transfer(400, 12, 2)
        assert 0.35 <= result.r_seconds / result.total_seconds <= 0.55

    def test_skew_dominates_locality_transfer(self):
        uniform = model_vft_transfer(100, 4, 24).total_seconds
        skewed = model_vft_transfer(100, 4, 24,
                                    segment_skew=[5, 1, 1, 1]).total_seconds
        assert skewed > 1.5 * uniform


class TestPredictionModel:
    def test_near_linear_scaling_in_rows(self):
        t_small = model_in_db_prediction(1e7, "kmeans", 5).total_seconds
        t_large = model_in_db_prediction(1e9, "kmeans", 5).total_seconds
        # Paper: dataset grows 100x, time grows far less due to fixed costs,
        # but the scan component is exactly linear.
        scan_small = model_in_db_prediction(1e7, "kmeans", 5).scan_seconds
        scan_large = model_in_db_prediction(1e9, "kmeans", 5).scan_seconds
        assert scan_large / scan_small == pytest.approx(100.0)
        assert t_large < 100 * t_small

    def test_more_nodes_speed_up_prediction(self):
        t5 = model_in_db_prediction(1e9, "glm", 5).total_seconds
        t10 = model_in_db_prediction(1e9, "glm", 10).total_seconds
        assert t10 < t5

    def test_kmeans_costs_more_than_glm(self):
        km = model_in_db_prediction(1e8, "kmeans", 5).total_seconds
        glm = model_in_db_prediction(1e8, "glm", 5).total_seconds
        assert km > glm

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            model_in_db_prediction(1e6, "svm", 5)


class TestAlgorithmModels:
    def test_r_flat_in_cores_dr_scales(self):
        r_1 = model_kmeans_iteration_r(1e6, 100, 1000).per_iteration_seconds
        dr_1 = model_kmeans_iteration_dr(1e6, 100, 1000, cores=1)
        dr_12 = model_kmeans_iteration_dr(1e6, 100, 1000, cores=12)
        assert dr_12.per_iteration_seconds < dr_1.per_iteration_seconds / 8
        assert r_1 == pytest.approx(
            model_kmeans_iteration_r(1e6, 100, 1000).per_iteration_seconds
        )

    def test_9x_speedup_at_12_cores(self):
        r_time = model_kmeans_iteration_r(1e6, 100, 1000).per_iteration_seconds
        dr_time = model_kmeans_iteration_dr(
            1e6, 100, 1000, cores=12).per_iteration_seconds
        assert 7 <= r_time / dr_time <= 12

    def test_plateau_past_physical_cores(self):
        dr_12 = model_kmeans_iteration_dr(1e6, 100, 1000, cores=12)
        dr_24 = model_kmeans_iteration_dr(1e6, 100, 1000, cores=24)
        assert dr_24.per_iteration_seconds == pytest.approx(
            dr_12.per_iteration_seconds
        )

    def test_dr_regression_beats_r_even_single_core(self):
        """Fig 18's algorithmic point: Newton-Raphson beats QR at 1 core."""
        r_time = model_regression_r(1e8, 7).total_seconds
        dr_time = model_regression_dr(1e8, 7, cores=1, iterations=2).total_seconds
        assert dr_time < r_time / 2

    def test_regression_weak_scaling_flat(self):
        """Fig 19: proportional data growth keeps iteration time flat."""
        times = [
            model_regression_dr(rows, 100, cores=24, nodes=nodes,
                                iterations=1).per_iteration_seconds
            for nodes, rows in ((1, 3e7), (4, 1.2e8), (8, 2.4e8))
        ]
        assert max(times) / min(times) < 1.05

    def test_straggler_skew_slows_iteration(self):
        balanced = model_kmeans_iteration_dr(
            1e6, 100, 1000, cores=12, nodes=4).per_iteration_seconds
        skewed = model_kmeans_iteration_dr(
            1e6, 100, 1000, cores=12, nodes=4,
            skew=[3, 1, 1, 1]).per_iteration_seconds
        assert skewed > balanced


class TestSparkModels:
    def test_dr_about_20_percent_faster(self):
        dr = model_kmeans_iteration_blas(4.8e8, 100, 1000, 8)
        spark = model_spark_kmeans_iteration(4.8e8, 100, 1000, 8)
        assert 1.1 <= spark / dr <= 1.5

    def test_weak_scaling_flat_for_both(self):
        for model in (model_kmeans_iteration_blas, model_spark_kmeans_iteration):
            times = [
                model(rows, 100, 1000, nodes)
                for nodes, rows in ((1, 6e7), (4, 2.4e8), (8, 4.8e8))
            ]
            assert max(times) / min(times) < 1.01

    def test_end_to_end_near_tie(self):
        """Fig 21: Spark loads faster, DR iterates faster — roughly a tie."""
        systems = model_end_to_end_kmeans(2.4e8, 100, 1000, 4, 180, iterations=1)
        vertica = systems["vertica+dr"]
        spark = systems["spark+hdfs"]
        assert vertica.load_seconds > spark.load_seconds
        assert vertica.per_iteration_seconds < spark.per_iteration_seconds
        ratio = vertica.total_seconds / spark.total_seconds
        assert 0.75 <= ratio <= 1.25

    def test_ext4_load_fastest(self):
        systems = model_end_to_end_kmeans(2.4e8, 100, 1000, 4, 180)
        assert systems["dr+ext4"].load_seconds < systems["spark+hdfs"].load_seconds
        assert systems["dr+ext4"].load_seconds < systems["vertica+dr"].load_seconds

    def test_more_iterations_favor_dr(self):
        one = model_end_to_end_kmeans(2.4e8, 100, 1000, 4, 180, iterations=1)
        ten = model_end_to_end_kmeans(2.4e8, 100, 1000, 4, 180, iterations=10)
        ratio_one = one["vertica+dr"].total_seconds / one["spark+hdfs"].total_seconds
        ratio_ten = ten["vertica+dr"].total_seconds / ten["spark+hdfs"].total_seconds
        assert ratio_ten < ratio_one


class TestProfiles:
    def test_scaled_profile_speeds_everything(self):
        fast = scaled_profile(SL390, speed=2.0)
        slow_time = model_vft_transfer(100, 4, 24, SL390).total_seconds
        fast_time = model_vft_transfer(100, 4, 24, fast).total_seconds
        assert fast_time < slow_time

    def test_scaled_profile_overrides(self):
        custom = scaled_profile(SL390, speed=1.0, db_scan_slots_per_node=8)
        assert custom.db_scan_slots_per_node == 8

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            scaled_profile(SL390, speed=0)
