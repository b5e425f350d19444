"""``hpdrandomforest``: distributed random forests on darrays.

The paper lists random forest among the prediction functions added to
Vertica ("We have added prediction functions in Vertica for common machine
learning models such as clustering, regression, and randomforest", §5), so
the model-creation side lives here: a from-scratch CART learner plus a
partition-parallel ensemble — each worker grows its share of the forest on
bootstrap resamples of its local partition, and the trees are gathered into
one model (the classic embarrassingly-parallel forest construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.dr.darray import DArray
from repro.errors import ModelError

__all__ = ["DecisionTree", "RandomForestModel", "hpdrandomforest", "train_tree"]

_LEAF = -1


@dataclass(frozen=True)
class _NodeTable:
    """Trees packed into one flat node table, walked all at once.

    Node ``i`` of the table sends a point to ``children[2 * i + 1]`` when
    its ``feature`` value is ``<= threshold[i]`` and to ``children[2 * i]``
    otherwise, so a ``NaN`` feature goes right as in CART.  A leaf points to
    itself on both sides (its ``feature`` is 0 and its threshold unused):
    a walk of ``depth`` steps, the deepest tree's, leaves every point of
    every tree at its leaf, whatever the depth of its own tree.
    """

    roots: np.ndarray       # (trees,) each tree's root node
    feature: np.ndarray     # (nodes,) intp
    threshold: np.ndarray   # (nodes,) float64
    children: np.ndarray    # (2 * nodes,) intp
    value: np.ndarray       # (nodes,) or (nodes, classes)
    depth: int

    @classmethod
    def pack(cls, trees: list["DecisionTree"]) -> "_NodeTable":
        sizes = [tree.node_count for tree in trees]
        roots = np.cumsum([0] + sizes[:-1])
        offsets = np.repeat(roots, sizes)
        feature = np.concatenate([tree.feature for tree in trees])
        leaf = feature == _LEAF
        own = np.arange(len(feature))
        children = np.empty((len(feature), 2), dtype=np.intp)
        children[:, 0] = np.where(
            leaf, own, np.concatenate([tree.right for tree in trees]) + offsets)
        children[:, 1] = np.where(
            leaf, own, np.concatenate([tree.left for tree in trees]) + offsets)
        # Longest root-to-leaf path, one level of every tree per step.
        depth, level = 0, roots[~leaf[roots]]
        while len(level):
            depth += 1
            level = children[level].ravel()
            level = level[~leaf[level]]
        return cls(
            roots=roots,
            feature=np.where(leaf, 0, feature).astype(np.intp),
            threshold=np.concatenate([tree.threshold for tree in trees]
                                     ).astype(np.float64),
            children=children.ravel(),
            value=np.concatenate([tree.value for tree in trees]),
            depth=depth,
        )

    def leaf_values(self, points: np.ndarray) -> np.ndarray:
        """``(trees, rows[, classes])``: every tree's leaf value per row.

        The walk reads the matrix as its columns laid end to end, which is
        free for the column-major (Fortran-order) matrices prediction hands
        in and one copy for any other.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ModelError(f"trees score 2-D points, got ndim={points.ndim}")
        n = len(points)
        columns = points.ravel(order="F")
        rows = np.arange(n, dtype=np.intp)
        nodes = np.repeat(self.roots[:, None], n, axis=1)
        for _ in range(self.depth):
            x = columns.take(self.feature[nodes] * n + rows)
            go_left = x <= self.threshold[nodes]
            nodes = self.children[2 * nodes + go_left]
        return self.value[nodes]


@dataclass
class DecisionTree:
    """A CART tree in flat-array form (cheap to serialize and traverse).

    ``feature[i] == -1`` marks node *i* as a leaf; ``value[i]`` is then the
    prediction (mean response for regression, class-probability vector for
    classification).
    """

    feature: np.ndarray          # (nodes,) int
    threshold: np.ndarray        # (nodes,) float
    left: np.ndarray             # (nodes,) int
    right: np.ndarray            # (nodes,) int
    value: np.ndarray            # (nodes,) or (nodes, classes)
    task: str                    # "regression" | "classification"

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @cached_property
    def _nodes(self) -> _NodeTable:
        return _NodeTable.pack([self])

    @property
    def depth(self) -> int:
        return self._nodes.depth

    def predict_value(self, points: np.ndarray) -> np.ndarray:
        """Route every point to its leaf; returns raw leaf values."""
        return self._nodes.leaf_values(points)[0]


class _TreeBuilder:
    """Grows one CART tree with reservoir-style node arrays."""

    def __init__(self, task: str, n_classes: int, max_depth: int,
                 min_samples_split: int, min_samples_leaf: int,
                 max_features: int, rng: np.random.Generator) -> None:
        self.task = task
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list = []

    def build(self, x: np.ndarray, y: np.ndarray) -> DecisionTree:
        self._grow(x, y, depth=0)
        value = np.asarray(self.value, dtype=np.float64)
        return DecisionTree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=value,
            task=self.task,
        )

    def _leaf_value(self, y: np.ndarray):
        if self.task == "regression":
            return float(y.mean())
        counts = np.bincount(y.astype(np.int64), minlength=self.n_classes)
        return counts / counts.sum()

    def _impurity(self, y: np.ndarray) -> float:
        if self.task == "regression":
            return float(np.var(y)) * len(y)
        counts = np.bincount(y.astype(np.int64), minlength=self.n_classes)
        proportions = counts / len(y)
        return float(1.0 - np.sum(proportions**2)) * len(y)

    def _emit_leaf(self, y: np.ndarray) -> int:
        node = len(self.feature)
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(self._leaf_value(y))
        return node

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> int:
        n = len(y)
        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or len(np.unique(y)) == 1
        ):
            return self._emit_leaf(y)
        split = self._best_split(x, y)
        if split is None:
            return self._emit_leaf(y)
        feature, threshold = split
        mask = x[:, feature] <= threshold
        node = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-2)   # patched below
        self.right.append(-2)
        self.value.append(self._leaf_value(y))
        left_child = self._grow(x[mask], y[mask], depth + 1)
        right_child = self._grow(x[~mask], y[~mask], depth + 1)
        self.left[node] = left_child
        self.right[node] = right_child
        return node

    def _best_split(self, x: np.ndarray, y: np.ndarray):
        n, d = x.shape
        candidates = self.rng.permutation(d)[: self.max_features]
        parent_impurity = self._impurity(y)
        best_gain = 1e-12
        best = None
        for feature in candidates:
            order = np.argsort(x[:, feature], kind="stable")
            xs = x[order, feature]
            ys = y[order]
            # Candidate boundaries: positions where the value changes.
            change = np.flatnonzero(np.diff(xs)) + 1
            if len(change) == 0:
                continue
            valid = change[
                (change >= self.min_samples_leaf)
                & (change <= n - self.min_samples_leaf)
            ]
            if len(valid) == 0:
                continue
            gains = parent_impurity - self._split_impurities(ys, valid)
            best_index = int(np.argmax(gains))
            if gains[best_index] > best_gain:
                best_gain = float(gains[best_index])
                cut = valid[best_index]
                best = (int(feature), float((xs[cut - 1] + xs[cut]) / 2.0))
        return best

    def _split_impurities(self, ys: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        """Sum of child impurities for each candidate cut position."""
        n = len(ys)
        if self.task == "regression":
            prefix = np.concatenate([[0.0], np.cumsum(ys)])
            prefix_sq = np.concatenate([[0.0], np.cumsum(ys**2)])
            left_n = cuts.astype(np.float64)
            right_n = n - left_n
            left_sum = prefix[cuts]
            right_sum = prefix[-1] - left_sum
            left_sq = prefix_sq[cuts]
            right_sq = prefix_sq[-1] - left_sq
            left_sse = left_sq - left_sum**2 / left_n
            right_sse = right_sq - right_sum**2 / right_n
            return left_sse + right_sse
        one_hot = np.zeros((n, self.n_classes))
        one_hot[np.arange(n), ys.astype(np.int64)] = 1.0
        prefix = np.vstack([np.zeros(self.n_classes), np.cumsum(one_hot, axis=0)])
        left_counts = prefix[cuts]
        right_counts = prefix[-1] - left_counts
        left_n = cuts.astype(np.float64)[:, None]
        right_n = n - left_n
        left_gini = left_n.ravel() * (
            1.0 - np.sum((left_counts / left_n) ** 2, axis=1)
        )
        right_gini = right_n.ravel() * (
            1.0 - np.sum((right_counts / right_n) ** 2, axis=1)
        )
        return left_gini + right_gini


def train_tree(
    x: np.ndarray,
    y: np.ndarray,
    task: str = "regression",
    n_classes: int | None = None,
    max_depth: int = 12,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    max_features: int | None = None,
    seed: int | None = None,
) -> DecisionTree:
    """Grow a single CART tree on plain arrays."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).ravel()
    if x.ndim != 2 or len(x) != len(y):
        raise ModelError("train_tree requires aligned 2-D features and responses")
    if len(y) == 0:
        raise ModelError("cannot train a tree on zero rows")
    if task not in ("regression", "classification"):
        raise ModelError(f"unknown task {task!r}")
    if task == "classification":
        classes = int(y.max()) + 1 if n_classes is None else n_classes
    else:
        classes = 0
    builder = _TreeBuilder(
        task=task,
        n_classes=classes,
        max_depth=max_depth,
        min_samples_split=max(2, min_samples_split),
        min_samples_leaf=max(1, min_samples_leaf),
        max_features=max_features or x.shape[1],
        rng=np.random.default_rng(seed),
    )
    return builder.build(x, y)


@dataclass
class RandomForestModel:
    """A trained forest: the trees plus enough metadata to predict.

    The first prediction packs the trees into one node table, kept for the
    model object's lifetime, and every prediction walks all trees together
    over the points' columns: one numpy pass per tree level for the whole
    forest, not one walk per tree.  The ``(trees, rows)`` leaf values are
    averaged over the trees, so the answers are those of scoring each tree
    alone and averaging.
    """

    trees: list[DecisionTree] = field(default_factory=list)
    task: str = "regression"
    n_classes: int = 0
    n_features: int = 0
    n_observations: int = 0

    model_type = "randomforest"

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @cached_property
    def _nodes(self) -> _NodeTable:
        return _NodeTable.pack(self.trees)

    def _mean_leaf_values(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        if points.shape[1] != self.n_features:
            raise ModelError(
                f"model expects {self.n_features} features, got {points.shape[1]}"
            )
        if not self.trees:
            raise ModelError("forest has no trees")
        return self._nodes.leaf_values(points).mean(axis=0)

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Ensemble prediction: mean (regression) or majority vote."""
        if self.task == "regression":
            return self._mean_leaf_values(points)
        return np.argmax(self.predict_proba(points), axis=1)

    def predict_proba(self, points: np.ndarray) -> np.ndarray:
        if self.task != "classification":
            raise ModelError("predict_proba requires a classification forest")
        return self._mean_leaf_values(points)


def hpdrandomforest(
    responses: DArray,
    features: DArray,
    n_trees: int = 50,
    task: str = "regression",
    max_depth: int = 12,
    min_samples_leaf: int = 1,
    max_features: str | int = "sqrt",
    seed: int = 0,
) -> RandomForestModel:
    """Grow a forest in parallel across co-partitioned darrays.

    Each partition grows ``ceil(n_trees / npartitions)`` trees on bootstrap
    resamples of its *local* rows, then the master concatenates the
    ensembles (the standard data-parallel forest approximation).
    """
    if responses.npartitions != features.npartitions:
        raise ModelError("responses and features must be co-partitioned")
    if n_trees < 1:
        raise ModelError("n_trees must be >= 1")
    d = features.ncol
    if max_features == "sqrt":
        feature_budget = max(1, int(np.sqrt(d)))
    elif max_features == "all":
        feature_budget = d
    elif isinstance(max_features, int) and max_features >= 1:
        feature_budget = min(max_features, d)
    else:
        raise ModelError(f"bad max_features {max_features!r}")

    if task == "classification":
        maxima = responses.map_partitions(
            lambda i, part: int(np.max(part)) if len(part) else 0
        )
        n_classes = max(maxima) + 1
    else:
        n_classes = 0

    npartitions = features.npartitions
    trees_per_partition = int(np.ceil(n_trees / npartitions))

    def grow_local(index: int, x_part: np.ndarray, y_part: np.ndarray):
        x = np.asarray(x_part, dtype=np.float64)
        y = np.asarray(y_part).ravel()
        if len(y) == 0:
            return []
        rng = np.random.default_rng(seed + index * 100_003)
        grown = []
        for t in range(trees_per_partition):
            sample = rng.integers(0, len(y), size=len(y))
            grown.append(train_tree(
                x[sample], y[sample],
                task=task,
                n_classes=n_classes or None,
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
                max_features=feature_budget,
                seed=int(rng.integers(2**31)),
            ))
        return grown

    per_partition = features.map_partitions(grow_local, responses)
    trees = [tree for grown in per_partition for tree in grown][:n_trees]
    if not trees:
        raise ModelError("no trees were grown (all partitions empty?)")
    return RandomForestModel(
        trees=trees,
        task=task,
        n_classes=n_classes,
        n_features=d,
        n_observations=features.nrow,
    )
