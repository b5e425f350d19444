"""Synthetic workload generators matching the paper's methodology (§7)."""

from repro.workloads.clusters import ClusterDataset, make_blobs
from repro.workloads.regression import (
    RegressionDataset,
    make_classification,
    make_regression,
)

__all__ = [
    "make_regression",
    "make_classification",
    "RegressionDataset",
    "make_blobs",
    "ClusterDataset",
]
