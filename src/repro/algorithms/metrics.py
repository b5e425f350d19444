"""Model-quality metrics shared by the algorithms, CV, and the benchmarks."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError

__all__ = [
    "mean_squared_error",
    "r_squared",
    "accuracy",
    "log_loss",
    "confusion_matrix",
]


def _check_lengths(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ModelError(f"length mismatch: {a.shape} vs {b.shape}")
    if len(a) == 0:
        raise ModelError("metrics require at least one observation")
    return a, b


def mean_squared_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _check_lengths(y_true, y_pred)
    return float(np.mean((y_true - y_pred) ** 2))


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination (1 - SSE/SST)."""
    y_true, y_pred = _check_lengths(y_true, y_pred)
    sse = float(np.sum((y_true - y_pred) ** 2))
    sst = float(np.sum((y_true - y_true.mean()) ** 2))
    if sst == 0:
        return 1.0 if sse == 0 else 0.0
    return 1.0 - sse / sst


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if y_true.shape != y_pred.shape:
        raise ModelError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if len(y_true) == 0:
        raise ModelError("metrics require at least one observation")
    return float(np.mean(y_true == y_pred))


def log_loss(y_true: np.ndarray, probabilities: np.ndarray,
             eps: float = 1e-12) -> float:
    """Binary cross-entropy of predicted probabilities."""
    y_true, probabilities = _check_lengths(y_true, probabilities)
    p = np.clip(probabilities, eps, 1.0 - eps)
    return float(-np.mean(y_true * np.log(p) + (1 - y_true) * np.log(1 - p)))


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray,
                     labels: list | None = None) -> tuple[np.ndarray, list]:
    """(matrix, labels): matrix[i, j] counts true label i predicted as j."""
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if y_true.shape != y_pred.shape:
        raise ModelError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if labels is None:
        labels = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for truth, prediction in zip(y_true, y_pred):
        matrix[index[truth], index[prediction]] += 1
    return matrix, labels
