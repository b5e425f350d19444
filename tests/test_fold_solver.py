"""Tests for the unified partition-fold solver kernel.

Covers the :mod:`repro.algorithms.fold` driver (``fold_fit`` /
``LocalArray``), its shared per-class sum kernel, carrier-independence of
the ported solvers (a fit over a ``LocalArray`` matches the same fit over a
distributed darray), and cross-validation over the unified fold interface: seeded shuffle
determinism, fold-count edge cases, and CV-score parity against closed-form
per-fold fits.
"""

import numpy as np
import pytest

from repro.algorithms import (
    LocalArray,
    PartitionFold,
    cv_hpdglm,
    fold_fit,
    hpdglm,
    hpdkmeans,
    hpdnaivebayes,
)
from repro.algorithms.fold import per_class_sums
from repro.errors import ModelError, PartitionError
from repro.spark import SparkContext
from repro.vertica import DistributedFileSystem
from repro.workloads import make_blobs, make_classification, make_regression


def fill_pair(session, features, responses, npartitions=3):
    """Co-partitioned (Y, X) darrays, split at the same linspace boundaries
    LocalArray uses."""
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


class TestLocalArray:
    def test_linspace_splits_match_darray_convention(self):
        data = np.arange(20, dtype=float).reshape(10, 2)
        arr = LocalArray(data, npartitions=3)
        boundaries = np.linspace(0, 10, 4).astype(int)
        expected = [
            (boundaries[i + 1] - boundaries[i], 2) for i in range(3)
        ]
        assert arr.partition_shapes() == expected
        assert arr.nrow == 10 and arr.ncol == 2 and arr.shape == (10, 2)

    def test_one_dimensional_input_becomes_column(self):
        arr = LocalArray([1.0, 2.0, 3.0])
        assert arr.shape == (3, 1)
        assert np.array_equal(arr.collect(), [[1.0], [2.0], [3.0]])

    def test_collect_roundtrips(self):
        data = np.random.default_rng(0).normal(size=(17, 3))
        assert np.array_equal(LocalArray(data, npartitions=4).collect(), data)

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(PartitionError):
            LocalArray(np.zeros((2, 2, 2)))

    def test_zero_partitions_rejected(self):
        with pytest.raises(PartitionError):
            LocalArray(np.zeros((4, 1)), npartitions=0)

    def test_map_partitions_forwards_index_and_companions(self):
        x = LocalArray(np.arange(6, dtype=float).reshape(6, 1), npartitions=2)
        y = LocalArray(np.arange(6, 12, dtype=float), npartitions=2)
        seen = x.map_partitions(
            lambda i, xp, yp: (i, float(xp.sum()), float(yp.sum())), y)
        assert seen == [(0, 3.0, 21.0), (1, 12.0, 30.0)]

    def test_map_partitions_rejects_mismatched_companions(self):
        x = LocalArray(np.zeros((6, 1)), npartitions=2)
        y = LocalArray(np.zeros((6, 1)), npartitions=3)
        with pytest.raises(PartitionError):
            x.map_partitions(lambda i, xp, yp: None, y)


class _ColumnSumFold:
    """One-shot fold: sum of every row across partitions."""

    solver = "test.sum"

    def init_state(self):
        return None

    def partial(self, state, index, partition):
        return partition.sum(axis=0)

    def merge(self, partials):
        return np.sum(partials, axis=0)

    def step(self, state, merged, iteration):
        return merged

    def converged(self, state):
        return True


class _CountingFold(_ColumnSumFold):
    """Never converges; counts the synchronized iterations it gets."""

    solver = "test.count"

    def __init__(self):
        self.iterations = 0

    def step(self, state, merged, iteration):
        self.iterations = iteration
        return merged

    def converged(self, state):
        return False


class TestFoldFit:
    def test_single_pass_fold_sums_columns(self):
        data = np.arange(12, dtype=float).reshape(6, 2)
        state = fold_fit(LocalArray(data, npartitions=3), _ColumnSumFold())
        assert np.array_equal(state, data.sum(axis=0))

    def test_runs_until_max_iterations_without_convergence(self):
        fold = _CountingFold()
        fold_fit(LocalArray(np.ones((4, 1))), fold, max_iterations=5)
        assert fold.iterations == 5

    def test_zero_iterations_rejected(self):
        with pytest.raises(ModelError):
            fold_fit(LocalArray(np.ones((4, 1))), _ColumnSumFold(),
                     max_iterations=0)

    def test_protocols_are_runtime_checkable(self):
        assert isinstance(_ColumnSumFold(), PartitionFold)
        assert not isinstance(object(), PartitionFold)


class TestPerClassSums:
    """per_class_sums is the one grouped-sum kernel of the K-means and naive
    Bayes partials; it must reproduce np.add.at bit for bit."""

    @pytest.mark.parametrize("rows, d, k", [
        (100_000, 8, 8), (25_000, 20, 50), (7, 3, 3), (0, 4, 5), (1_000, 1, 6),
    ])
    def test_bit_identical_to_add_at(self, rows, d, k):
        rng = np.random.default_rng(rows + d + k)
        # Mixed magnitudes make any change of addition order visible.
        scale = rng.choice([1e-8, 1.0, 1e8], size=(rows, 1))
        values = rng.normal(size=(rows, d)) * scale
        labels = rng.integers(0, k, size=rows)
        expected = np.zeros((k, d))
        np.add.at(expected, labels, values)
        got = per_class_sums(labels, values, k)
        assert got.shape == (k, d)
        assert np.array_equal(got, expected)


class TestCarrierIndependence:
    """The ported solvers give the same answer on LocalArray and DArray —
    the fold kernel abstracts the data carrier away."""

    def test_glm_matches_across_carriers(self, session):
        data = make_regression(600, 3, noise_scale=0.3, seed=21)
        y, x = fill_pair(session, data.features, data.responses)
        distributed = hpdglm(y, x, family="gaussian")
        local = hpdglm(
            LocalArray(data.responses, npartitions=3),
            LocalArray(data.features, npartitions=3),
            family="gaussian",
        )
        assert np.allclose(distributed.coefficients, local.coefficients,
                           atol=1e-12)
        assert distributed.deviance == pytest.approx(local.deviance)
        assert np.allclose(distributed.standard_errors, local.standard_errors,
                           atol=1e-12)

    def test_kmeans_matches_across_carriers(self, session):
        """The Spark RDD is a third carrier: over the same partitioning,
        seeded or from the same initial centers, the fit is bit-identical
        on all three (the Fig 20 apples-to-apples claim)."""
        blobs = make_blobs(450, 2, 3, seed=22)
        points = make_blobs(900, 4, 5, seed=1).points
        for data, options in (
            (blobs.points, dict(k=3, seed=5)),
            (points, dict(k=5, initial_centers=points[:5], max_iterations=8,
                          tolerance=0.0)),
        ):
            darr = session.darray(npartitions=3)
            darr.fill_from(data)
            with SparkContext(DistributedFileSystem(3, replication=3)) as sc:
                sc.save_matrix("/km/data", data, npartitions=3)
                models = [hpdkmeans(carrier, **options) for carrier in (
                    darr, LocalArray(data, npartitions=3),
                    sc.matrix_from_hdfs("/km/data"))]
            distributed = models[0]
            for model in models[1:]:
                assert np.array_equal(model.centers, distributed.centers)
                assert np.array_equal(model.cluster_sizes,
                                      distributed.cluster_sizes)
                assert model.inertia == distributed.inertia
                assert model.iterations == distributed.iterations

    def test_input_layout_does_not_reach_the_solvers(self, session):
        """The same rows handed over in C order and in Fortran order: every
        carrier stores column-major partitions, so K-means is bit-identical
        on all six (BLAS and einsum round by layout, so only one layout can
        be) and GLM agrees to 1e-12."""
        data = make_regression(900, 4, noise_scale=0.3, seed=24)
        kmeans, glms = [], []
        for order in ("C", "F"):
            x = np.asarray(data.features, order=order)
            y = np.asarray(data.responses.reshape(-1, 1), order=order)
            dx = session.darray(npartitions=3).fill_from(x)
            dy = session.darray(npartitions=3, worker_assignment=[
                dx.worker_of(i) for i in range(3)]).fill_from(y)
            with SparkContext(DistributedFileSystem(3, replication=3)) as sc:
                sc.save_matrix("/lay/x", x, npartitions=3)
                sc.save_matrix("/lay/y", y, npartitions=3)
                carriers = [(dy, dx),
                            (LocalArray(y, npartitions=3),
                             LocalArray(x, npartitions=3)),
                            (sc.matrix_from_hdfs("/lay/y"),
                             sc.matrix_from_hdfs("/lay/x"))]
                for responses, features in carriers:
                    kmeans.append(hpdkmeans(features, k=4, seed=9,
                                            max_iterations=6, tolerance=0.0))
                    glms.append(hpdglm(responses, features, family="gaussian"))
        for model in kmeans[1:]:
            assert np.array_equal(model.centers, kmeans[0].centers)
            assert np.array_equal(model.cluster_sizes, kmeans[0].cluster_sizes)
            assert model.inertia == kmeans[0].inertia
        for model in glms[1:]:
            assert np.allclose(model.coefficients, glms[0].coefficients,
                               rtol=0, atol=1e-12)

    def test_naive_bayes_matches_across_carriers(self, session):
        data = make_classification(900, 3, seed=23)
        y, x = fill_pair(session, data.features, data.responses.astype(float))
        distributed = hpdnaivebayes(y, x)
        local = hpdnaivebayes(
            LocalArray(data.responses.astype(float), npartitions=3),
            LocalArray(data.features, npartitions=3),
        )
        assert np.allclose(distributed.means, local.means, atol=1e-12)
        assert np.allclose(distributed.class_log_priors,
                           local.class_log_priors, atol=1e-12)

def local_fold_ids(n, npartitions, nfolds, seed):
    """Reconstruct cv._fold_assignment's per-partition deterministic ids."""
    boundaries = np.linspace(0, n, npartitions + 1).astype(int)
    ids = np.empty(n, dtype=np.int64)
    for i in range(npartitions):
        rng = np.random.default_rng(seed + i * 7919)
        ids[boundaries[i]:boundaries[i + 1]] = rng.integers(
            0, nfolds, size=boundaries[i + 1] - boundaries[i])
    return ids


class TestCrossValidationUnifiedFold:
    """cv_hpdglm satellites: determinism, edge cases, and score parity over
    the fold_fit-backed GLM."""

    def test_same_seed_reproduces_scores_exactly(self, session):
        data = make_regression(600, 3, noise_scale=0.4, seed=51)
        y, x = fill_pair(session, data.features, data.responses)
        one = cv_hpdglm(y, x, nfolds=4, seed=3)
        two = cv_hpdglm(y, x, nfolds=4, seed=3)
        assert one.fold_deviances == two.fold_deviances
        assert one.fold_metrics == two.fold_metrics

    def test_different_seeds_shuffle_differently(self, session):
        data = make_regression(600, 3, noise_scale=0.4, seed=52)
        y, x = fill_pair(session, data.features, data.responses)
        one = cv_hpdglm(y, x, nfolds=4, seed=0)
        two = cv_hpdglm(y, x, nfolds=4, seed=1)
        assert one.fold_deviances != two.fold_deviances

    def test_more_folds_than_rows_rejected(self, session):
        data = make_regression(4, 1, seed=53)
        y, x = fill_pair(session, data.features, data.responses,
                         npartitions=2)
        with pytest.raises(ModelError):
            cv_hpdglm(y, x, nfolds=5)

    def test_not_co_partitioned_rejected(self, session):
        data = make_regression(60, 2, seed=54)
        _, x = fill_pair(session, data.features, data.responses,
                         npartitions=3)
        y = session.darray(npartitions=2)
        y.fill_from(data.responses.reshape(-1, 1))
        with pytest.raises(ModelError):
            cv_hpdglm(y, x, nfolds=3)

    def test_empty_fold_reported(self, session):
        # With 12 rows over 3 partitions and seed 0, fold 4 of 6 draws no
        # rows (pinned by local_fold_ids below) — the driver must say so
        # rather than fit on everything and score on nothing.
        assert (local_fold_ids(12, 3, 6, 0) == 4).sum() == 0
        data = make_regression(12, 1, seed=55)
        y, x = fill_pair(session, data.features, data.responses,
                         npartitions=3)
        with pytest.raises(ModelError, match="empty"):
            cv_hpdglm(y, x, nfolds=6, seed=0)

    def test_gaussian_fold_models_match_closed_form(self, session):
        """Each per-fold GLM equals the normal-equations solution on its
        training rows, and each reported deviance is the held-out SSE."""
        data = make_regression(600, 3, noise_scale=0.5, seed=56)
        y, x = fill_pair(session, data.features, data.responses)
        nfolds, seed = 4, 0
        result = cv_hpdglm(y, x, family="gaussian", nfolds=nfolds, seed=seed)

        fold_ids = local_fold_ids(600, 3, nfolds, seed)
        design = np.column_stack([np.ones(600), data.features])
        for fold in range(nfolds):
            train = fold_ids != fold
            expected = np.linalg.lstsq(design[train],
                                       data.responses[train], rcond=None)[0]
            assert np.allclose(result.models[fold].coefficients, expected,
                               atol=1e-8)
            held = ~train
            mu = result.models[fold].predict(data.features[held])
            sse = float(np.sum((data.responses[held] - mu) ** 2))
            assert result.fold_deviances[fold] == pytest.approx(sse)
        assert result.mean_deviance == pytest.approx(
            float(np.mean(result.fold_deviances)))
