"""Tests for the workload generators and the figure-regeneration harness."""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import ModelError
from repro.harness import all_figures, format_figure, write_experiments_md
from repro.harness.figures import fig12, fig14, fig17, fig20, fig21
from repro.vertica import VerticaCluster
from repro.workloads import (
    make_blobs,
    make_classification,
    make_prediction_table,
    make_regression,
    load_cluster_table,
    load_regression_table,
)


class TestRegressionWorkload:
    def test_shapes_and_truth(self):
        data = make_regression(500, 4, seed=0)
        assert data.features.shape == (500, 4)
        assert data.responses.shape == (500,)
        assert data.true_coefficients.shape == (4,)

    def test_noiseless_is_exact(self):
        data = make_regression(200, 3, noise_scale=0.0, seed=1)
        reconstructed = data.true_intercept + data.features @ data.true_coefficients
        assert np.allclose(reconstructed, data.responses)

    def test_deterministic_by_seed(self):
        a = make_regression(100, 2, seed=5)
        b = make_regression(100, 2, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.responses, b.responses)

    def test_explicit_coefficients(self):
        coeffs = np.array([1.0, -1.0])
        data = make_regression(50, 2, coefficients=coeffs, seed=2)
        assert np.array_equal(data.true_coefficients, coeffs)

    def test_wrong_coefficient_shape_rejected(self):
        with pytest.raises(ModelError):
            make_regression(50, 2, coefficients=np.ones(3))

    def test_table_columns_layout(self):
        data = make_regression(50, 3, seed=3)
        columns = data.as_table_columns()
        assert set(columns) == {"y", "x0", "x1", "x2"}
        assert data.feature_names() == ["x0", "x1", "x2"]

    def test_classification_labels_binary(self):
        data = make_classification(300, 2, seed=4)
        assert set(np.unique(data.responses)) <= {0, 1}


class TestClusterWorkload:
    def test_blob_labels_match_nearest_center_mostly(self):
        dataset = make_blobs(1000, 4, 5, spread=0.1, seed=0)
        from repro.algorithms import assign_to_centers

        labels, _ = assign_to_centers(dataset.points, dataset.centers)
        assert (labels == dataset.labels).mean() > 0.99

    def test_k_greater_than_rows_rejected(self):
        with pytest.raises(ModelError):
            make_blobs(3, 2, 10)

    def test_feature_names(self):
        dataset = make_blobs(10, 3, 2, seed=1)
        assert dataset.feature_names() == ["f0", "f1", "f2"]


class TestTableLoaders:
    def test_load_regression_table(self):
        cluster = VerticaCluster(node_count=2)
        data = make_regression(400, 3, seed=0)
        features = load_regression_table(cluster, "reg", data)
        assert features == ["x0", "x1", "x2"]
        assert cluster.sql("SELECT COUNT(*) FROM reg").scalar() == 400

    def test_load_cluster_table(self):
        cluster = VerticaCluster(node_count=2)
        dataset = make_blobs(300, 2, 3, seed=1)
        features = load_cluster_table(cluster, "blobs", dataset)
        assert features == ["f0", "f1"]
        assert cluster.sql("SELECT COUNT(*) FROM blobs").scalar() == 300

    def test_make_prediction_table(self):
        cluster = VerticaCluster(node_count=2)
        features = make_prediction_table(cluster, "scores", 500, n_features=6)
        assert len(features) == 6
        assert cluster.sql("SELECT COUNT(*) FROM scores").scalar() == 500


class TestHarness:
    def test_all_figures_cover_the_evaluation(self):
        figures = all_figures(include_functional=False)
        ids = {figure.figure_id for figure in figures}
        assert ids == {"Fig 1", "Fig 12", "Fig 13", "Fig 14", "Fig 15",
                       "Fig 16", "Fig 17", "Fig 18", "Fig 19", "Fig 20",
                       "Fig 21"}

    def test_every_stated_paper_number_within_50_percent(self):
        for figure in all_figures(include_functional=False):
            for row in figure.rows:
                error = row.relative_error
                if error is not None:
                    assert error < 0.5, (
                        f"{figure.figure_id} {row.series} @ {row.x}: {error:.0%}"
                    )

    def test_fig12_vft_wins_at_every_size(self):
        figure = fig12()
        by_x: dict = {}
        for row in figure.rows:
            by_x.setdefault(row.x, {})[row.series] = row.modelled_seconds
        for x, series in by_x.items():
            assert series["VFT (locality)"] < series["ODBC (120 conns)"] / 3

    def test_fig14_breakdown_components_sum(self):
        figure = fig14()
        by_x: dict = {}
        for row in figure.rows:
            by_x.setdefault(row.x, {})[row.series] = row.modelled_seconds
        for x, series in by_x.items():
            assert series["total"] == pytest.approx(
                series["DB part"] + series["R part"], abs=6.0
            )

    def test_fig17_r_flat_dr_decreasing(self):
        figure = fig17()
        r_values = [row.modelled_seconds for row in figure.rows if row.series == "R"]
        dr_values = [row.modelled_seconds for row in figure.rows
                     if row.series == "Distributed R"]
        assert max(r_values) == pytest.approx(min(r_values))
        assert dr_values[0] > dr_values[4]  # 1 core vs 12 cores

    def test_fig20_dr_beats_spark_everywhere(self):
        figure = fig20()
        by_x: dict = {}
        for row in figure.rows:
            by_x.setdefault(row.x, {})[row.series] = row.modelled_seconds
        for x, series in by_x.items():
            assert series["Distributed R"] < series["Spark"]

    def test_fig21_is_near_tie(self):
        figure = fig21()
        totals = {
            row.x: row.modelled_seconds
            for row in figure.rows if row.series == "load + 1 iteration"
        }
        ratio = totals["vertica+dr"] / totals["spark+hdfs"]
        assert 0.7 <= ratio <= 1.3

    def test_format_figure_renders(self):
        text = format_figure(fig12())
        assert "Fig 12" in text
        assert "VFT" in text

    def test_write_experiments_md(self, tmp_path):
        path = write_experiments_md(all_figures(include_functional=False),
                                    tmp_path / "EXPERIMENTS.md")
        content = path.read_text()
        assert "# EXPERIMENTS" in content
        assert "Fig 21" in content
        assert "Calibration provenance" in content

    def test_committed_experiments_md_is_current(self, tmp_path):
        """The paper-fidelity record at the repo root is what the harness
        produces today, functional figures (Fig 10) included."""
        committed = Path(__file__).parent.parent / "EXPERIMENTS.md"
        fresh = write_experiments_md(all_figures(), tmp_path / "EXPERIMENTS.md")
        assert fresh.read_bytes() == committed.read_bytes(), (
            "EXPERIMENTS.md drifted from the harness; run `make experiments`"
        )
