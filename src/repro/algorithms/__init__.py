"""Distributed machine learning on Distributed R data structures: the
HPdregression / HPdcluster / HPdclassifier analogs."""

from repro.algorithms.cv import CrossValidationResult, cv_hpdglm
from repro.algorithms.families import Family, binomial, family_by_name, gaussian, poisson
from repro.algorithms.fold import LocalArray, PartitionFold, fold_fit
from repro.algorithms.glm import GlmModel, hpdglm
from repro.algorithms.kmeans import KMeansModel, assign_to_centers, hpdkmeans
from repro.algorithms.metrics import (
    accuracy,
    confusion_matrix,
    log_loss,
    mean_squared_error,
    r_squared,
)
from repro.algorithms.naive_bayes import NaiveBayesModel, hpdnaivebayes, model_from_moments
from repro.algorithms.random_forest import (
    DecisionTree,
    RandomForestModel,
    hpdrandomforest,
    train_tree,
)

__all__ = [
    "PartitionFold",
    "fold_fit",
    "LocalArray",
    "hpdglm",
    "GlmModel",
    "cv_hpdglm",
    "CrossValidationResult",
    "hpdkmeans",
    "KMeansModel",
    "assign_to_centers",
    "hpdrandomforest",
    "RandomForestModel",
    "DecisionTree",
    "train_tree",
    "hpdnaivebayes",
    "NaiveBayesModel",
    "model_from_moments",
    "Family",
    "gaussian",
    "binomial",
    "poisson",
    "family_by_name",
    "mean_squared_error",
    "r_squared",
    "accuracy",
    "log_loss",
    "confusion_matrix",
]
