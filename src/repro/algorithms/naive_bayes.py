"""``hpdnaivebayes``: distributed Gaussian naive Bayes.

A one-pass classifier: each partition computes per-class counts, sums, and
sums of squares; the master combines them into class priors and per-feature
Gaussian parameters.  Its codec is built into
:mod:`repro.deploy.serialize` and its ``nbPredict`` UDF is one of the
standard prediction functions, like every other family's.

The single pass is a one-iteration :class:`~repro.algorithms.fold.
PartitionFold` (:class:`_NaiveBayesFold`) under the shared
:func:`~repro.algorithms.fold.fold_fit` driver, and the fitted model keeps
its additive ``(counts, sums, squares)`` sufficient statistics so
``REFRESH MODEL`` can fold new epochs in exactly (the variance floor makes
the fitted parameters themselves non-invertible back to the sums).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.fold import fold_fit, per_class_sums
from repro.dr.darray import DArray
from repro.errors import ModelError

__all__ = ["NaiveBayesModel", "hpdnaivebayes", "model_from_moments"]

_VARIANCE_FLOOR = 1e-9


@dataclass
class NaiveBayesModel:
    """Class priors plus per-class Gaussian feature parameters."""

    class_log_priors: np.ndarray   # (k,)
    means: np.ndarray              # (k, d)
    variances: np.ndarray          # (k, d)
    n_observations: int
    # Additive sufficient statistics ({"counts", "sums", "squares"}); kept so
    # incremental refresh can extend the fit without the original rows.
    sufficient_stats: dict | None = field(default=None, repr=False, compare=False)

    model_type = "naivebayes"

    @property
    def n_classes(self) -> int:
        return len(self.class_log_priors)

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def log_likelihood(self, features: np.ndarray) -> np.ndarray:
        """(n, k) joint log-likelihoods."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.shape[1] != self.n_features:
            raise ModelError(
                f"model expects {self.n_features} features, got {features.shape[1]}"
            )
        # log N(x | mu, sigma^2) summed over features, per class.
        diff = features[:, None, :] - self.means[None, :, :]
        log_pdf = -0.5 * (
            np.log(2.0 * np.pi * self.variances)[None, :, :]
            + diff * diff / self.variances[None, :, :]
        )
        return self.class_log_priors[None, :] + log_pdf.sum(axis=2)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most likely class per row."""
        return np.argmax(self.log_likelihood(features), axis=1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Normalized posterior probabilities (n, k)."""
        joint = self.log_likelihood(features)
        joint -= joint.max(axis=1, keepdims=True)
        likelihood = np.exp(joint)
        return likelihood / likelihood.sum(axis=1, keepdims=True)


class _NaiveBayesFold:
    """The one-pass moment collection in the partition-fold contract."""

    solver = "naivebayes.moments"

    def __init__(self, n_classes: int) -> None:
        self.n_classes = n_classes

    def init_state(self):
        return None

    def partial(self, state, index: int, x_part: np.ndarray,
                y_part: np.ndarray):
        """Per-class (counts, sums, sums of squares) of one partition."""
        n_classes = self.n_classes
        x = np.asarray(x_part, dtype=np.float64)
        y = np.asarray(y_part).ravel().astype(np.int64)
        if len(y) and (y.min() < 0 or y.max() >= n_classes):
            raise ModelError(
                f"labels must lie in [0, {n_classes}), found "
                f"[{y.min()}, {y.max()}]"
            )
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        return (counts, per_class_sums(y, x, n_classes),
                per_class_sums(y, x * x, n_classes))

    def merge(self, partials: list):
        counts = np.sum([r[0] for r in partials], axis=0)
        sums = np.sum([r[1] for r in partials], axis=0)
        squares = np.sum([r[2] for r in partials], axis=0)
        return counts, sums, squares

    def step(self, state, merged, iteration: int):
        return merged

    def converged(self, state) -> bool:
        return True


def model_from_moments(counts: np.ndarray, sums: np.ndarray,
                       squares: np.ndarray) -> NaiveBayesModel:
    """Build a :class:`NaiveBayesModel` from additive class moments.

    Shared by the initial fit and by incremental refresh (which adds the
    delta rows' moments to the stored sufficient statistics and re-derives
    the parameters).
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if (counts == 0).any():
        empty = np.flatnonzero(counts == 0).tolist()
        raise ModelError(f"classes {empty} have no training rows")
    means = sums / counts[:, None]
    variances = np.maximum(
        squares / counts[:, None] - means * means, _VARIANCE_FLOOR)
    return NaiveBayesModel(
        class_log_priors=np.log(counts / total),
        means=means,
        variances=variances,
        n_observations=int(total),
        sufficient_stats={"counts": counts, "sums": sums, "squares": squares},
    )


def hpdnaivebayes(responses: DArray, features: DArray,
                  n_classes: int | None = None) -> NaiveBayesModel:
    """Fit Gaussian naive Bayes in one distributed pass.

    ``responses`` holds integer class labels (0..k-1) co-partitioned with
    ``features``.
    """
    if responses.npartitions != features.npartitions:
        raise ModelError("responses and features must be co-partitioned")
    if n_classes is None:
        maxima = responses.map_partitions(
            lambda i, part: int(np.max(part)) if len(part) else -1)
        n_classes = max(maxima) + 1
    if n_classes < 2:
        raise ModelError(f"need at least 2 classes, inferred {n_classes}")

    fold = _NaiveBayesFold(n_classes)
    counts, sums, squares = fold_fit(features, fold, responses)
    return model_from_moments(counts, sums, squares)
