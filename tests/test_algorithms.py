"""Tests for the distributed ML algorithms and single-threaded baselines."""

import numpy as np
import pytest

from repro.algorithms import (
    accuracy,
    assign_to_centers,
    binomial,
    confusion_matrix,
    cv_hpdglm,
    family_by_name,
    gaussian,
    hpdglm,
    hpdkmeans,
    hpdrandomforest,
    log_loss,
    mean_squared_error,
    poisson,
    r_squared,
    train_tree,
)
from repro.errors import ModelError
from repro.rbase import glm_fit, lm, r_kmeans
from repro.workloads import make_blobs, make_classification, make_regression


def fill_pair(session, features, responses, npartitions=3):
    """Load co-partitioned (Y, X) darrays from plain arrays."""
    x = session.darray(npartitions=npartitions)
    x.fill_from(features)
    y = session.darray(
        npartitions=npartitions,
        worker_assignment=[x.worker_of(i) for i in range(npartitions)],
    )
    boundaries = np.linspace(0, len(features), npartitions + 1).astype(int)
    for i in range(npartitions):
        y.fill_partition(i, responses[boundaries[i]:boundaries[i + 1]].reshape(-1, 1))
    return y, x


class TestFamilies:
    def test_lookup(self):
        assert family_by_name("gaussian").name == "gaussian"
        assert family_by_name("BINOMIAL").link_name == "logit"
        assert family_by_name("poisson").link_name == "log"
        with pytest.raises(ModelError):
            family_by_name("gamma")

    def test_sigmoid_stable_at_extremes(self):
        fam = binomial()
        mu = fam.inverse_link(np.array([-800.0, 0.0, 800.0]))
        assert mu[0] == pytest.approx(0.0)
        assert mu[1] == pytest.approx(0.5)
        assert mu[2] == pytest.approx(1.0)
        assert np.isfinite(mu).all()

    def test_gaussian_deviance_is_sse(self):
        fam = gaussian()
        y = np.array([1.0, 2.0])
        mu = np.array([0.0, 0.0])
        assert fam.deviance(y, mu).sum() == pytest.approx(5.0)

    def test_binomial_deviance_zero_at_perfect_fit(self):
        fam = binomial()
        y = np.array([0.0, 1.0])
        assert fam.deviance(y, y).sum() == pytest.approx(0.0, abs=1e-6)

    def test_binomial_response_validation(self):
        with pytest.raises(ModelError):
            binomial().validate_response(np.array([0.0, 2.0]))

    def test_poisson_response_validation(self):
        with pytest.raises(ModelError):
            poisson().validate_response(np.array([-1.0]))


class TestHpdGlm:
    def test_gaussian_recovers_truth(self, session):
        data = make_regression(4000, 4, noise_scale=0.05, seed=1)
        y, x = fill_pair(session, data.features, data.responses)
        model = hpdglm(y, x, family="gaussian")
        assert model.converged
        assert model.coefficients[0] == pytest.approx(data.true_intercept, abs=0.02)
        assert np.allclose(model.coefficients[1:], data.true_coefficients, atol=0.02)

    def test_gaussian_matches_lstsq_exactly(self, session):
        data = make_regression(500, 3, noise_scale=0.5, seed=2)
        y, x = fill_pair(session, data.features, data.responses)
        model = hpdglm(y, x, family="gaussian")
        design = np.column_stack([np.ones(500), data.features])
        expected = np.linalg.lstsq(design, data.responses, rcond=None)[0]
        assert np.allclose(model.coefficients, expected, atol=1e-8)

    def test_binomial_recovers_signs_and_scale(self, session):
        data = make_classification(8000, 3, seed=3,
                                   coefficients=np.array([1.5, -2.0, 0.8]))
        y, x = fill_pair(session, data.features, data.responses.astype(float))
        model = hpdglm(y, x, family="binomial")
        assert model.converged
        assert np.allclose(model.coefficients[1:], [1.5, -2.0, 0.8], atol=0.25)

    def test_binomial_matches_single_node_irls(self, session):
        data = make_classification(2000, 2, seed=4)
        y, x = fill_pair(session, data.features, data.responses.astype(float))
        distributed = hpdglm(y, x, family="binomial")
        single = glm_fit(data.features, data.responses, family="binomial")
        assert np.allclose(distributed.coefficients, single, atol=1e-6)

    def test_poisson_fit(self, session):
        rng = np.random.default_rng(5)
        x_data = rng.normal(size=(3000, 2))
        rate = np.exp(0.3 + x_data @ np.array([0.5, -0.4]))
        counts = rng.poisson(rate).astype(float)
        y, x = fill_pair(session, x_data, counts)
        model = hpdglm(y, x, family="poisson")
        assert np.allclose(model.coefficients, [0.3, 0.5, -0.4], atol=0.1)

    def test_no_intercept(self, session):
        data = make_regression(1000, 2, intercept=0.0, noise_scale=0.01, seed=6)
        y, x = fill_pair(session, data.features, data.responses)
        model = hpdglm(y, x, intercept=False)
        assert len(model.coefficients) == 2
        assert np.allclose(model.coefficients, data.true_coefficients, atol=0.01)

    def test_ridge_shrinks(self, session):
        data = make_regression(300, 3, noise_scale=0.1, seed=7)
        y, x = fill_pair(session, data.features, data.responses)
        plain = hpdglm(y, x)
        ridged = hpdglm(y, x, ridge=100.0)
        assert np.linalg.norm(ridged.coefficients[1:]) < np.linalg.norm(
            plain.coefficients[1:]
        )

    def test_predict_response_and_link(self, session):
        data = make_classification(2000, 2, seed=8)
        y, x = fill_pair(session, data.features, data.responses.astype(float))
        model = hpdglm(y, x, family="binomial")
        probabilities = model.predict(data.features)
        assert ((probabilities >= 0) & (probabilities <= 1)).all()
        link = model.predict(data.features, response_type="link")
        assert not ((link >= 0) & (link <= 1)).all()

    def test_predict_wrong_width_rejected(self, session):
        data = make_regression(200, 3, seed=9)
        y, x = fill_pair(session, data.features, data.responses)
        model = hpdglm(y, x)
        with pytest.raises(ModelError):
            model.predict(np.ones((5, 7)))

    def test_trace_records_iterations(self, session):
        data = make_classification(1000, 2, seed=10)
        y, x = fill_pair(session, data.features, data.responses.astype(float))
        trace = []
        model = hpdglm(y, x, family="binomial", trace=trace)
        assert len(trace) == model.iterations
        deviances = [t[0] for t in trace]
        assert deviances[-1] <= deviances[0]

    def test_summary_mentions_features(self, session):
        data = make_regression(200, 2, seed=11)
        y, x = fill_pair(session, data.features, data.responses)
        model = hpdglm(y, x, feature_names=["alpha", "beta"])
        text = model.summary()
        assert "alpha" in text and "beta" in text and "(Intercept)" in text

    def test_standard_errors_shrink_with_data(self, session):
        small = make_regression(200, 2, noise_scale=1.0, seed=12)
        big = make_regression(5000, 2, noise_scale=1.0, seed=12)
        y_s, x_s = fill_pair(session, small.features, small.responses)
        y_b, x_b = fill_pair(session, big.features, big.responses)
        se_small = hpdglm(y_s, x_s).standard_errors
        se_big = hpdglm(y_b, x_b).standard_errors
        assert (se_big < se_small).all()

    def test_mismatched_partitions_rejected(self, session):
        x = session.darray(npartitions=2)
        x.fill_from(np.ones((10, 2)))
        y = session.darray(npartitions=3)
        y.fill_from(np.ones((10, 1)))
        with pytest.raises(ModelError):
            hpdglm(y, x)

    def test_too_few_rows_rejected(self, session):
        x = session.darray(npartitions=1)
        x.fill_from(np.ones((2, 5)))
        y = session.darray(npartitions=1, worker_assignment=[x.worker_of(0)])
        y.fill_partition(0, np.ones((2, 1)))
        with pytest.raises(ModelError):
            hpdglm(y, x)

    def test_null_deviance_exceeds_deviance(self, session):
        data = make_regression(1000, 3, noise_scale=0.1, seed=13)
        y, x = fill_pair(session, data.features, data.responses)
        model = hpdglm(y, x)
        assert model.null_deviance > model.deviance

    def test_unequal_partitions_supported(self, session):
        data = make_regression(100, 2, noise_scale=0.01, seed=14)
        x = session.darray(npartitions=3)
        x.fill_partition(0, data.features[:10])
        x.fill_partition(1, data.features[10:80])
        x.fill_partition(2, data.features[80:])
        y = session.darray(npartitions=3,
                           worker_assignment=[x.worker_of(i) for i in range(3)])
        y.fill_partition(0, data.responses[:10].reshape(-1, 1))
        y.fill_partition(1, data.responses[10:80].reshape(-1, 1))
        y.fill_partition(2, data.responses[80:].reshape(-1, 1))
        model = hpdglm(y, x)
        assert np.allclose(model.coefficients[1:], data.true_coefficients, atol=0.05)


class TestHpdKmeans:
    def test_recovers_blob_structure(self, session):
        dataset = make_blobs(2000, 5, 4, spread=0.2, seed=1)
        data = session.darray(npartitions=3)
        data.fill_from(dataset.points)
        model = hpdkmeans(data, k=4, seed=0, max_iterations=30)
        assert model.converged
        # Each true center should be close to some fitted center.
        for center in dataset.centers:
            distance = np.linalg.norm(model.centers - center, axis=1).min()
            assert distance < 0.5

    def test_inertia_decreases_monotonically(self, session):
        dataset = make_blobs(1500, 4, 5, seed=2)
        data = session.darray(npartitions=3)
        data.fill_from(dataset.points)
        inertias = []
        hpdkmeans(data, k=5, seed=0, max_iterations=15,
                  iteration_callback=lambda i, inertia: inertias.append(inertia))
        assert all(b <= a + 1e-6 for a, b in zip(inertias, inertias[1:]))

    def test_matches_single_threaded_given_same_init(self, session):
        dataset = make_blobs(800, 3, 4, seed=3)
        data = session.darray(npartitions=2)
        data.fill_from(dataset.points)
        init = dataset.points[:4].copy()
        distributed = hpdkmeans(data, k=4, initial_centers=init, max_iterations=10,
                                tolerance=0.0)
        sequential = r_kmeans(dataset.points, k=4, initial_centers=init,
                              max_iterations=10, tolerance=0.0)
        assert np.allclose(
            np.sort(distributed.centers, axis=0),
            np.sort(sequential.centers, axis=0),
            atol=1e-8,
        )
        assert distributed.inertia == pytest.approx(sequential.inertia)

    def test_predict_labels_consistent_with_centers(self, session):
        dataset = make_blobs(500, 3, 3, seed=4)
        data = session.darray(npartitions=2)
        data.fill_from(dataset.points)
        model = hpdkmeans(data, k=3, seed=1)
        labels = model.predict(dataset.points)
        expected, _ = assign_to_centers(dataset.points, model.centers)
        assert np.array_equal(labels, expected)

    def test_cluster_sizes_sum_to_n(self, session):
        dataset = make_blobs(700, 3, 4, seed=5)
        data = session.darray(npartitions=3)
        data.fill_from(dataset.points)
        model = hpdkmeans(data, k=4, seed=2)
        assert model.cluster_sizes.sum() == 700

    def test_kmeanspp_beats_random_init_on_average(self, session):
        dataset = make_blobs(1000, 4, 8, spread=0.1, seed=6)
        data = session.darray(npartitions=2)
        data.fill_from(dataset.points)
        pp = hpdkmeans(data, k=8, init="kmeans++", seed=3, max_iterations=3)
        rnd = hpdkmeans(data, k=8, init="random", seed=3, max_iterations=3)
        assert pp.inertia <= rnd.inertia * 1.5

    def test_k_larger_than_rows_rejected(self, session):
        data = session.darray(npartitions=1)
        data.fill_from(np.ones((3, 2)))
        with pytest.raises(ModelError):
            hpdkmeans(data, k=10)

    def test_bad_initial_centers_shape(self, session):
        data = session.darray(npartitions=1)
        data.fill_from(np.ones((10, 2)))
        with pytest.raises(ModelError):
            hpdkmeans(data, k=2, initial_centers=np.ones((2, 5)))

    def test_assign_to_centers_distances_nonnegative(self):
        points = np.random.default_rng(0).normal(size=(100, 3))
        labels, distances = assign_to_centers(points, points[:5])
        assert (distances >= 0).all()
        assert labels.max() < 5


class TestRandomForest:
    def test_single_tree_learns_threshold(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(500, 2))
        y = (x[:, 0] > 0.25).astype(np.int64)
        tree = train_tree(x, y, task="classification", seed=1)
        predictions = np.argmax(tree.predict_value(x), axis=1)
        assert accuracy(y, predictions) > 0.98

    def test_regression_tree_fits_step(self):
        x = np.linspace(0, 1, 300).reshape(-1, 1)
        y = np.where(x.ravel() > 0.5, 10.0, -10.0)
        tree = train_tree(x, y, task="regression", seed=2)
        assert mean_squared_error(y, tree.predict_value(x)) < 1.0

    def test_max_depth_respected(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(400, 3))
        y = rng.normal(size=400)
        tree = train_tree(x, y, task="regression", max_depth=3, seed=4)
        assert tree.depth <= 3

    def test_forest_classification(self, session):
        data = make_classification(2500, 3, seed=5,
                                   coefficients=np.array([2.0, -2.0, 1.0]))
        y, x = fill_pair(session, data.features, data.responses.astype(float))
        forest = hpdrandomforest(y, x, n_trees=9, task="classification",
                                 max_depth=8, seed=6)
        predictions = forest.predict(data.features)
        assert accuracy(data.responses, predictions) > 0.8

    def test_forest_regression(self, session):
        data = make_regression(1500, 3, noise_scale=0.1, seed=7)
        y, x = fill_pair(session, data.features, data.responses)
        forest = hpdrandomforest(y, x, n_trees=9, task="regression",
                                 max_depth=10, seed=8)
        predictions = forest.predict(data.features)
        assert r_squared(data.responses, predictions) > 0.7

    def test_predict_proba_rows_sum_to_one(self, session):
        data = make_classification(800, 2, seed=9)
        y, x = fill_pair(session, data.features, data.responses.astype(float))
        forest = hpdrandomforest(y, x, n_trees=6, task="classification", seed=10)
        probabilities = forest.predict_proba(data.features)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_proba_on_regression_rejected(self, session):
        data = make_regression(300, 2, seed=11)
        y, x = fill_pair(session, data.features, data.responses)
        forest = hpdrandomforest(y, x, n_trees=3, task="regression", seed=12)
        with pytest.raises(ModelError):
            forest.predict_proba(data.features)

    def test_tree_count_capped(self, session):
        data = make_regression(300, 2, seed=13)
        y, x = fill_pair(session, data.features, data.responses)
        forest = hpdrandomforest(y, x, n_trees=7, seed=14)
        assert forest.n_trees == 7

    def test_invalid_task_rejected(self):
        with pytest.raises(ModelError):
            train_tree(np.ones((10, 1)), np.ones(10), task="ranking")


class TestCrossValidation:
    def test_gaussian_cv_metric_near_noise_floor(self, session):
        data = make_regression(1200, 3, noise_scale=0.2, seed=15)
        y, x = fill_pair(session, data.features, data.responses)
        result = cv_hpdglm(y, x, family="gaussian", nfolds=4, seed=0)
        assert result.nfolds == 4
        assert len(result.models) == 4
        # Held-out MSE should approach the noise variance (0.04).
        assert result.mean_metric < 0.08

    def test_binomial_cv_accuracy(self, session):
        data = make_classification(2000, 2, seed=16,
                                   coefficients=np.array([3.0, -3.0]))
        y, x = fill_pair(session, data.features, data.responses.astype(float))
        result = cv_hpdglm(y, x, family="binomial", nfolds=3, seed=1)
        assert result.metric_name == "accuracy"
        assert result.mean_metric > 0.8

    def test_summary_lists_folds(self, session):
        data = make_regression(600, 2, seed=17)
        y, x = fill_pair(session, data.features, data.responses)
        result = cv_hpdglm(y, x, nfolds=3, seed=2)
        assert result.summary().count("fold") >= 3

    def test_too_few_folds_rejected(self, session):
        data = make_regression(100, 2, seed=18)
        y, x = fill_pair(session, data.features, data.responses)
        with pytest.raises(ModelError):
            cv_hpdglm(y, x, nfolds=1)


class TestRBaseline:
    def test_lm_matches_lstsq(self):
        data = make_regression(400, 3, noise_scale=0.3, seed=20)
        fit = lm(data.features, data.responses)
        design = np.column_stack([np.ones(400), data.features])
        expected = np.linalg.lstsq(design, data.responses, rcond=None)[0]
        assert np.allclose(fit.coefficients, expected, atol=1e-10)
        assert 0 <= fit.r_squared <= 1

    def test_lm_predict(self):
        data = make_regression(300, 2, noise_scale=0.01, seed=21)
        fit = lm(data.features, data.responses)
        predictions = fit.predict(data.features)
        assert r_squared(data.responses, predictions) > 0.99

    def test_lm_shape_validation(self):
        with pytest.raises(ModelError):
            lm(np.ones((5, 2)), np.ones(4))

    def test_r_kmeans_converges(self):
        dataset = make_blobs(600, 3, 4, seed=22)
        model = r_kmeans(dataset.points, k=4, seed=0, max_iterations=30)
        assert model.converged
        assert model.cluster_sizes.sum() == 600


class TestMetrics:
    def test_mse_rmse(self):
        assert mean_squared_error([1, 2], [1, 4]) == pytest.approx(2.0)

    def test_r_squared_perfect(self):
        y = np.arange(10.0)
        assert r_squared(y, y) == pytest.approx(1.0)

    def test_accuracy(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_log_loss_bounds(self):
        assert log_loss([1, 0], [0.9, 0.1]) < log_loss([1, 0], [0.6, 0.4])

    def test_confusion_matrix(self):
        matrix, labels = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        assert labels == [0, 1]
        assert matrix[0, 0] == 1 and matrix[0, 1] == 1 and matrix[1, 1] == 2

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            mean_squared_error([1], [1, 2])
