"""The in-database prediction kernels and the column-major layout they share.

* The whole-forest walk (``RandomForestModel`` / ``DecisionTree``) against a
  per-tree reference walk kept here: random trees, ``NaN`` and ±inf
  features, 0 / 1 / odd row counts, C- and F-order inputs, bit for bit.
* The k-major ``assign_to_centers`` against the row-major ``argmin``
  formulation kept here, bit for bit, including the rows whose distances
  mix ``inf`` and ``NaN``.
* The layout contract: the transfer receiver, the predict stack and every
  fold carrier hand out column-major (Fortran-order) float64 matrices.
* A prediction call the model cannot score fails on an empty input as it
  does on a full one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import VerticaCluster, deploy_model
from repro.algorithms import LocalArray, assign_to_centers, hpdglm, hpdkmeans
from repro.algorithms.random_forest import DecisionTree, RandomForestModel
from repro.deploy.predict_functions import _stack_features
from repro.dr import start_session
from repro.errors import ModelError
from repro.spark import SparkContext
from repro.storage.encoding import SqlType
from repro.transfer import db2darray, db2darray_with_response
from repro.transfer.streams import encode_frame, frames_to_matrix
from repro.vertica import DistributedFileSystem, HashSegmentation

kernel_settings = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LEAF = -1


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- the forest walk -----------------------------------------------------------


def reference_leaf_values(tree, points):
    """One tree, one walk: advance the still-active rows a level at a time."""
    nodes = np.zeros(len(points), dtype=np.int64)
    active = tree.feature[nodes] != LEAF
    while active.any():
        idx = np.flatnonzero(active)
        current = nodes[idx]
        go_left = points[idx, tree.feature[current]] <= tree.threshold[current]
        nodes[idx] = np.where(go_left, tree.left[current], tree.right[current])
        active[idx] = tree.feature[nodes[idx]] != LEAF
    return tree.value[nodes]


def reference_depth(tree):
    depths = np.zeros(tree.node_count, dtype=np.int64)
    for node in range(tree.node_count):
        if tree.feature[node] != LEAF:
            depths[tree.left[node]] = depths[tree.right[node]] = depths[node] + 1
    return int(depths.max())


THRESHOLDS = np.array([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0])


def random_tree(rng, d, max_depth, task, n_classes):
    """A preorder CART tree of random shape: a single leaf when
    ``max_depth`` is 0, branches of unequal depth otherwise."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        if task == "regression":
            value.append(float(rng.normal()))
        else:
            counts = rng.integers(0, 5, size=n_classes) + (np.arange(n_classes) == 0)
            value.append(counts / counts.sum())
        if depth < max_depth and rng.random() < 0.75:
            feature[node] = int(rng.integers(d))
            threshold[node] = float(rng.choice(THRESHOLDS))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        return node

    grow(0)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
        task=task,
    )


def random_points(rng, n, d, order):
    """Normal features, some exactly on a threshold, some NaN or ±inf."""
    points = rng.normal(size=(n, d))
    on_threshold = rng.random(size=(n, d)) < 0.2
    points[on_threshold] = rng.choice(THRESHOLDS, size=int(on_threshold.sum()))
    special = rng.random(size=(n, d)) < 0.1
    points[special] = rng.choice([np.nan, np.inf, -np.inf],
                                 size=int(special.sum()))
    return np.asarray(points, order=order)


forest_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "task": st.sampled_from(["regression", "classification"]),
    "depths": st.lists(st.integers(0, 7), min_size=1, max_size=9),
    "d": st.integers(1, 6),
    "n": st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(4, 301)),
    "order": st.sampled_from(["C", "F"]),
})


class TestForestWalk:
    """Walking every tree at once gives each tree's own leaf, and the forest
    averages the same ``(trees, rows)`` array, so every answer is bit for bit
    that of scoring the trees one at a time."""

    @kernel_settings
    @given(forest_cases)
    def test_forest_matches_per_tree_walks(self, case):
        rng = np.random.default_rng(case["seed"])
        n_classes = int(rng.integers(2, 5))
        d = case["d"]
        trees = [random_tree(rng, d, depth, case["task"], n_classes)
                 for depth in case["depths"]]
        forest = RandomForestModel(trees=trees, task=case["task"],
                                   n_classes=n_classes, n_features=d)
        points = random_points(rng, case["n"], d, case["order"])
        leaf_values = np.mean([reference_leaf_values(tree, points)
                               for tree in trees], axis=0)
        if case["task"] == "regression":
            assert_bits(forest.predict(points), leaf_values)
        else:
            assert_bits(forest.predict_proba(points), leaf_values)
            assert_bits(forest.predict(points), np.argmax(leaf_values, axis=1))
        for tree in trees:
            assert_bits(tree.predict_value(points),
                        reference_leaf_values(tree, points))
            assert tree.depth == reference_depth(tree)

    def test_nan_goes_right_and_infinities_follow_the_comparison(self):
        tree = DecisionTree(
            feature=np.array([0, LEAF, LEAF]), threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, LEAF, LEAF]), right=np.array([2, LEAF, LEAF]),
            value=np.array([0.0, 10.0, 20.0]), task="regression")
        points = np.array([[np.nan], [-np.inf], [np.inf], [0.5]])
        assert tree.predict_value(points).tolist() == [20.0, 10.0, 20.0, 10.0]

    def test_single_leaf_forest_needs_no_walk(self):
        leaf = DecisionTree(
            feature=np.array([LEAF]), threshold=np.array([0.0]),
            left=np.array([LEAF]), right=np.array([LEAF]),
            value=np.array([3.5]), task="regression")
        forest = RandomForestModel(trees=[leaf, leaf], n_features=2)
        assert forest.predict(np.ones((3, 2))).tolist() == [3.5] * 3
        assert leaf.depth == 0

    def test_forest_packs_its_trees_once(self):
        rng = np.random.default_rng(5)
        trees = [random_tree(rng, 3, 4, "regression", 0) for _ in range(3)]
        forest = RandomForestModel(trees=trees, n_features=3)
        points = random_points(rng, 50, 3, "F")
        first = forest.predict(points)
        packed = forest._nodes
        assert_bits(forest.predict(points[:7]), first[:7])
        assert forest._nodes is packed

    def test_predict_proba_checks_the_width(self):
        rng = np.random.default_rng(6)
        trees = [random_tree(rng, 3, 3, "classification", 2)]
        forest = RandomForestModel(trees=trees, task="classification",
                                   n_classes=2, n_features=3)
        with pytest.raises(ModelError, match="expects 3 features"):
            forest.predict_proba(np.zeros((4, 2)))


# -- k-major nearest center ----------------------------------------------------


def reference_assign(points, centers):
    """The row-major formulation: an ``(n, k)`` distance matrix, ``argmin``
    across each row, and a gather of the chosen distance."""
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    point_norms = np.einsum("ij,ij->i", points, points)
    center_norms = np.einsum("ij,ij->i", centers, centers)
    cross = points @ centers.T
    distances = point_norms[:, None] - 2.0 * cross + center_norms[None, :]
    labels = np.argmin(distances, axis=1)
    best = np.maximum(distances[np.arange(len(points)), labels], 0.0)
    return labels, best


assign_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 400)),
    "d": st.one_of(st.just(1), st.integers(2, 24)),
    "k": st.one_of(st.just(1), st.integers(2, 12)),
    "duplicates": st.booleans(),
    "specials": st.booleans(),
    "order": st.sampled_from(["C", "F"]),
})


class TestKMajorAssignment:
    @kernel_settings
    @given(assign_cases)
    def test_matches_the_argmin_formulation(self, case):
        rng = np.random.default_rng(case["seed"])
        n, d, k = case["n"], case["d"], case["k"]
        scale = rng.choice([1e-3, 1.0, 1e4], size=(n, 1))
        points = rng.normal(size=(n, d)) * scale
        centers = rng.normal(size=(k, d))
        if case["duplicates"] and k > 1:
            centers[rng.integers(1, k)] = centers[0]
            # Points on a center tie exactly between its copies.
            points[: n // 2] = centers[0]
        if case["specials"] and n:
            rows = rng.random(size=n) < 0.3
            points[rows, rng.integers(d)] = rng.choice(
                [np.nan, np.inf, -np.inf], size=int(rows.sum()))
        points = np.asarray(points, order=case["order"])
        labels, distances = assign_to_centers(points, centers)
        want_labels, want_distances = reference_assign(points, centers)
        assert np.array_equal(labels, want_labels)
        assert_bits(distances, want_distances)

    def test_lowest_index_wins_among_duplicate_centers(self):
        centers = np.array([[5.0, 5.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        labels, distances = assign_to_centers(np.zeros((3, 2)), centers)
        assert labels.tolist() == [1, 1, 1]
        assert distances.tolist() == [0.0, 0.0, 0.0]

    def test_nan_row_takes_the_first_center(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels, distances = assign_to_centers(np.array([[np.nan, 0.0]]), centers)
        assert labels.tolist() == [0] and np.isnan(distances[0])

    def test_infinite_feature_takes_the_first_nan_distance(self):
        """``inf`` against center 0 gives an ``inf`` distance and against
        center 1 ``inf - inf = NaN``; ``argmin`` takes the NaN, center 1."""
        centers = np.array([[-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        points = np.array([[np.inf, 0.0], [0.9, 0.0]])
        labels, distances = assign_to_centers(points, centers)
        want_labels, want_distances = reference_assign(points, centers)
        assert labels.tolist() == want_labels.tolist() == [1, 1]
        assert_bits(distances, want_distances)

    def test_empty_points_and_no_centers(self):
        labels, distances = assign_to_centers(np.zeros((0, 3)), np.ones((2, 3)))
        assert labels.shape == distances.shape == (0,)
        with pytest.raises(ModelError):
            assign_to_centers(np.ones((2, 3)), np.zeros((0, 3)))


# -- layout contract -------------------------------------------------------------


def assert_column_major(matrix):
    assert matrix.dtype == np.float64
    assert matrix.ndim == 2 and matrix.flags.f_contiguous


def loaded_cluster(rows=600, nodes=3, seed=3):
    rng = np.random.default_rng(seed)
    columns = {"k": np.arange(rows), "y": rng.normal(size=rows),
               "a": rng.normal(size=rows), "b": rng.integers(0, 9, size=rows)}
    cluster = VerticaCluster(node_count=nodes)
    cluster.create_table_like("t", columns, HashSegmentation("k"))
    cluster.bulk_load("t", columns)
    return cluster, columns


class TestColumnMajorLayout:
    def test_frames_to_matrix(self):
        types = {"a": SqlType.FLOAT, "b": SqlType.INTEGER}
        payload = b"".join(
            encode_frame({"a": np.arange(rows, dtype=float) / 3,
                          "b": np.arange(rows)}, types)
            for rows in (5, 0, 7))
        matrix = frames_to_matrix(payload, ["b", "a"])
        assert_column_major(matrix)
        assert matrix.shape == (12, 2)
        assert matrix[:, 0].tolist() == list(range(5)) + list(range(7))

    def test_stack_features(self):
        args = {"c0": np.arange(5), "c1": np.linspace(0, 1, 5), "c2": np.ones(5)}
        matrix = _stack_features(args)
        assert_column_major(matrix)
        assert np.array_equal(matrix, np.column_stack(list(args.values())))
        assert_column_major(_stack_features({"c0": np.zeros(0)}))

    def test_db2darray_partitions(self):
        cluster, _ = loaded_cluster()
        with start_session(node_count=3, instances_per_node=1) as session:
            features = db2darray(cluster, "t", ["a", "b"], session)
            response, design = db2darray_with_response(
                cluster, "t", "y", ["a", "b"], session)
            for array in (features, response, design):
                for index in range(array.npartitions):
                    assert_column_major(array.get_partition(index))

    def test_every_carrier_stores_column_major(self, session):
        data = np.arange(60, dtype=float).reshape(20, 3)   # C order
        darr = session.darray(npartitions=3).fill_from(data)
        local = LocalArray(data, npartitions=3)
        with SparkContext(DistributedFileSystem(3, replication=1)) as sc:
            sc.save_matrix("/layout", data, npartitions=3)
            rdd = sc.matrix_from_hdfs("/layout")
            for carrier in (darr, local, rdd):
                for index in range(carrier.npartitions):
                    assert_column_major(carrier.get_partition(index))
                assert np.array_equal(carrier.collect(), data)


# -- a bad call fails on an empty input too ---------------------------------------


@pytest.fixture(scope="module")
def two_feature_models():
    """A 2-node cluster with table ``t(k, a, b)``, a GLM ``g`` and a K-means
    model ``km``, both fitted on two features."""
    cluster, columns = loaded_cluster(rows=400, nodes=2, seed=11)
    features = np.column_stack([columns["a"], columns["b"]])
    deploy_model(cluster, hpdglm(LocalArray(columns["y"]), LocalArray(features)), "g")
    deploy_model(cluster, hpdkmeans(LocalArray(features), k=2, seed=0), "km")
    return cluster


class TestPredictCallChecks:
    @pytest.mark.parametrize("where", ["", " WHERE k < 0"])
    @pytest.mark.parametrize("call, message", [
        ("glmPredict(a, b USING PARAMETERS model='g', type='bogus')", "type"),
        ("kmeansPredict(a USING PARAMETERS model='km')", "expects 2 features"),
        ("glmPredict(a, b, k USING PARAMETERS model='g')", "expects 2 features"),
    ])
    def test_bad_call_fails_with_or_without_rows(self, two_feature_models,
                                                 call, message, where):
        with pytest.raises(ModelError, match=message):
            two_feature_models.sql(f"SELECT {call} OVER (PARTITION BEST) FROM t{where}")

    @pytest.mark.parametrize("where, rows", [("", 400), (" WHERE k < 0", 0)])
    def test_good_call_scores_every_surviving_row(self, two_feature_models,
                                                  where, rows):
        for call in ("glmPredict(a, b USING PARAMETERS model='g', type='link')",
                     "kmeansPredict(a, b USING PARAMETERS model='km')"):
            result = two_feature_models.sql(
                f"SELECT {call} OVER (PARTITION BEST) FROM t{where}")
            assert len(result) == rows
