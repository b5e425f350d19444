"""In-database prediction UDFs: ``GlmPredict``, ``KmeansPredict``, ``RfPredict``,
``NbPredict``.

These are the transform functions of §5 / Figures 15–16: invoked as

    SELECT glmPredict(a, b USING PARAMETERS model='rModel')
    OVER (PARTITION BEST) FROM mytable2

the planner fans out many instances per node, each of which loads the model
from the local DFS replica (cached), copies each input column of a batch
into its column of one column-major (Fortran-order) float64 matrix, and
scores that matrix with a kernel that covers the whole model in each numpy
pass (all of a forest's trees at once, all K-means centers at once).  A
call the model cannot score (wrong argument count, unknown ``type=``)
fails before any row is scored, on an empty input too.  Users can register
their own prediction functions for custom model types via
:func:`make_prediction_function`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.deploy.deploy import load_model
from repro.errors import ExecutionError, ModelError
from repro.obs.trace import add_to_current
from repro.storage.encoding import ColumnSchema, SqlType
from repro.vertica.udtf import TransformFunction, UdtfContext, UdtfSignature

__all__ = [
    "GlmPredict",
    "KmeansPredict",
    "RfPredict",
    "NbPredict",
    "make_prediction_function",
    "standard_prediction_functions",
]


def _stack_features(args: dict[str, np.ndarray]) -> np.ndarray:
    """The batch's argument columns as one column-major (Fortran-order)
    float64 matrix: each column is one contiguous copy of its argument."""
    if not args:
        raise ExecutionError("prediction functions require feature arguments")
    columns = list(args.values())
    matrix = np.empty((len(columns[0]), len(columns)), dtype=np.float64, order="F")
    for j, column in enumerate(columns):
        matrix[:, j] = column
    return matrix


class _PredictBase(TransformFunction):
    """Shared plumbing: resolve the model, check its type, score features."""

    expected_model_type = ""
    output_column = "prediction"
    output_sql_type = SqlType.FLOAT

    def signature(self) -> UdtfSignature:
        # At least one numeric feature column; 'model' must name a deployed
        # model.  Extra parameters (e.g. glmPredict's type=) stay open-ended.
        return UdtfSignature(
            min_args=1,
            numeric_args=True,
            required_parameters=frozenset({"model"}),
            model_parameter="model",
        )

    def output_schema(self, params: Mapping[str, Any]) -> list[ColumnSchema]:
        return [ColumnSchema(self.output_column, self.output_sql_type)]

    def _resolve_model(self, ctx: UdtfContext, params: Mapping[str, Any]):
        model_name = params.get("model")
        if not model_name:
            raise ExecutionError(
                f"{self.name} requires a 'model' parameter naming a deployed model"
            )
        model = load_model(
            ctx.cluster, str(model_name), user=ctx.session_user,
            from_node=ctx.node_index,
        )
        actual = getattr(model, "model_type", "custom")
        if self.expected_model_type and actual != self.expected_model_type:
            raise ModelError(
                f"{self.name} expects a {self.expected_model_type!r} model, "
                f"{model_name!r} is {actual!r}"
            )
        return model

    def check_call(self, model, n_args: int, params: Mapping[str, Any]) -> None:
        """Reject a call the model cannot score before any row is scored, so
        it fails alike on an empty and on a non-empty input."""
        expected = getattr(model, "n_features", None)
        if expected is not None and n_args != expected:
            raise ModelError(
                f"{self.name}: model {params.get('model')!r} expects "
                f"{expected} features, got {n_args} arguments"
            )

    def score(self, model, features: np.ndarray, params: Mapping[str, Any]) -> np.ndarray:
        raise NotImplementedError

    def process_stream(self, ctx, batches, params):
        """Score batchwise: resolve the model once, check the call against
        it on the first batch (the executor sends a typed empty batch when
        no row survives), then predict each batch as it arrives, holding one
        batch of features at a time.  Rows score independently in every
        model here, so the concatenated predictions match single-matrix
        scoring exactly.
        """
        model = self._resolve_model(ctx, params)
        rows_predicted = ctx.cluster.metrics.counter("rows_predicted")
        chunks: list[np.ndarray] = []
        for index, args in enumerate(batches):
            if index == 0:
                self.check_call(model, len(args), params)
            features = _stack_features(args)
            if len(features) == 0:
                continue
            chunks.append(np.asarray(self.score(model, features, params)))
            rows_predicted.add(len(features))
            add_to_current(rows_predicted=len(features))
        if not chunks:
            return {self.output_column: np.empty(0, dtype=self.output_sql_type.numpy_dtype)}
        return {self.output_column: np.concatenate(chunks)}


class GlmPredict(_PredictBase):
    """Apply a deployed GLM's coefficients to table columns.

    ``USING PARAMETERS model='name' [, type='response'|'link']``.
    """

    name = "glmPredict"
    expected_model_type = "glm"

    def check_call(self, model, n_args, params):
        super().check_call(model, n_args, params)
        response_type = str(params.get("type", "response"))
        if response_type not in ("response", "link"):
            raise ModelError(
                f"{self.name}: type must be 'response' or 'link', "
                f"got {response_type!r}"
            )

    def score(self, model, features, params):
        response_type = str(params.get("type", "response"))
        return np.asarray(
            model.predict(features, response_type=response_type), dtype=np.float64
        )


class KmeansPredict(_PredictBase):
    """Map each input row to its nearest deployed K-means center."""

    name = "kmeansPredict"
    expected_model_type = "kmeans"
    output_column = "cluster"
    output_sql_type = SqlType.INTEGER

    def score(self, model, features, params):
        return np.asarray(model.predict(features), dtype=np.int64)


class RfPredict(_PredictBase):
    """Score rows with a deployed random forest (vote or mean)."""

    name = "rfPredict"
    expected_model_type = "randomforest"

    def score(self, model, features, params):
        predictions = model.predict(features)
        return np.asarray(predictions, dtype=np.float64)


class NbPredict(_PredictBase):
    """Most-likely class from a deployed Gaussian naive Bayes model."""

    name = "nbPredict"
    expected_model_type = "naivebayes"
    output_column = "label"
    output_sql_type = SqlType.INTEGER

    def score(self, model, features, params):
        return np.asarray(model.predict(features), dtype=np.int64)


class _CustomPredict(_PredictBase):
    """A user-registered prediction function for a custom model type."""

    def __init__(self, name: str, expected_model_type: str,
                 score_fn: Callable[[Any, np.ndarray, Mapping[str, Any]], np.ndarray],
                 output_column: str = "prediction",
                 output_sql_type: SqlType = SqlType.FLOAT) -> None:
        self.name = name
        self.expected_model_type = expected_model_type
        self._score_fn = score_fn
        self.output_column = output_column
        self.output_sql_type = output_sql_type

    def score(self, model, features, params):
        return np.asarray(self._score_fn(model, features, params))


def make_prediction_function(
    name: str,
    model_type: str,
    score_fn: Callable[[Any, np.ndarray, Mapping[str, Any]], np.ndarray],
    output_column: str = "prediction",
    output_sql_type: SqlType = SqlType.FLOAT,
) -> TransformFunction:
    """Build a prediction UDF for a custom model type.

    "Users have the flexibility to create their own prediction functions for
    custom models and register them with Vertica" (§5) — register the result
    with :meth:`VerticaCluster.register_udtf`.
    """
    if not name:
        raise ExecutionError("prediction function requires a name")
    return _CustomPredict(name, model_type, score_fn, output_column, output_sql_type)


def standard_prediction_functions() -> list[TransformFunction]:
    """The prediction UDFs installed by default."""
    return [GlmPredict(), KmeansPredict(), RfPredict(), NbPredict()]
