"""User-defined transform function (UDTF) framework.

Vertica's integration points in the paper are all transform functions:
``ExportToDistributedR`` starts VFT streams, ``KmeansPredict`` / ``GlmPredict``
score tables, and "users have the flexibility to create their own prediction
functions for custom models and register them with Vertica" (§5).

A transform function receives one *partition* of input rows (as column
arrays) plus the ``USING PARAMETERS`` dict, and emits output column arrays.
The executor fans instances out across nodes according to the query's
``OVER (PARTITION ...)`` clause and merges their outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

import numpy as np

from repro.errors import ExecutionError
from repro.storage.encoding import ColumnSchema
from repro.vertica.pipeline import concat_batches

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster

__all__ = ["UdtfContext", "UdtfSignature", "TransformFunction", "FunctionBasedUdtf"]


@dataclass(frozen=True)
class UdtfSignature:
    """Statically declared calling convention of a transform function.

    Consumed by the SQL semantic analyzer (:mod:`repro.vertica.sql.analyzer`)
    to reject malformed calls before any instance is fanned out.  The default
    is fully permissive, so functions that do not declare a signature keep
    their runtime-checked behaviour.

    ``min_args``/``max_args`` bound the argument count (``None`` = unbounded);
    ``numeric_args`` requires every argument to be numeric (INTEGER, FLOAT,
    or BOOLEAN — the encodings the prediction functions stack into a float64
    feature matrix); ``required_parameters``/``known_parameters`` describe the
    ``USING PARAMETERS`` dict (``known_parameters=None`` accepts any name);
    ``model_parameter`` names the parameter holding an ``R_Models`` reference,
    checked against the deployed-model catalog at execution time.
    """

    min_args: int = 0
    max_args: int | None = None
    numeric_args: bool = False
    required_parameters: frozenset[str] = frozenset()
    known_parameters: frozenset[str] | None = None
    model_parameter: str | None = None


@dataclass
class UdtfContext:
    """Execution context handed to each UDTF instance.

    ``node_index``/``instance_index`` identify where this instance runs (the
    prediction functions use ``node_index`` to prefer the local DFS model
    replica); ``cluster`` exposes database services.
    """

    cluster: "VerticaCluster"
    node_index: int
    instance_index: int
    instance_count: int
    session_user: str = "dbadmin"

    def read_dfs(self, path: str) -> bytes:
        """Read a DFS file, preferring the replica on this node."""
        return self.cluster.dfs.read(path, from_node=self.node_index)


class TransformFunction:
    """Base class for transform functions.

    Subclasses set :attr:`name`, implement :meth:`process`, and may override
    :meth:`output_schema` to declare output columns (otherwise they are
    inferred from the first non-empty output batch).
    """

    name: str = ""

    # Whether invocations are pure functions of table contents and model
    # catalog state.  Functions with external side effects (e.g. streaming
    # frames to R workers) set this False so the serving result cache never
    # replays a stored result instead of re-running the effect.
    cacheable: bool = True

    def signature(self) -> UdtfSignature:
        """Declared calling convention; permissive unless overridden."""
        return UdtfSignature()

    def output_schema(self, params: Mapping[str, Any]) -> list[ColumnSchema] | None:
        """Declared output columns, or ``None`` to infer from outputs."""
        return None

    def process(
        self,
        ctx: UdtfContext,
        args: dict[str, np.ndarray],
        params: Mapping[str, Any],
    ) -> dict[str, np.ndarray] | None:
        """Consume one input partition; return output columns (or ``None``).

        ``args`` maps *argument position names* (``arg0``, ``arg1``, … or the
        source column names when arguments are plain column references) to
        equal-length arrays.
        """
        raise NotImplementedError

    def process_stream(
        self,
        ctx: UdtfContext,
        batches: Iterator[dict[str, np.ndarray]],
        params: Mapping[str, Any],
    ) -> dict[str, np.ndarray] | None:
        """Consume this instance's partition as a stream of input batches.

        The executor feeds each instance from a bounded queue of
        rowgroup-granular batches.  The default materializes the stream and
        delegates to :meth:`process`, so existing functions run unchanged
        (holding that one instance's whole slice in memory); streaming-aware
        functions — the VFT exporter, the prediction functions — override
        this to bound their footprint to one batch.  Returns ``None`` when
        the stream yields no batches.
        """
        collected = list(batches)
        if not collected:
            return None
        return self.process(ctx, concat_batches(collected), params)

    def validate_output(self, output: dict[str, np.ndarray] | None) -> None:
        if output is None:
            return
        lengths = {name: len(np.atleast_1d(np.asarray(arr))) for name, arr in output.items()}
        if lengths and len(set(lengths.values())) != 1:
            raise ExecutionError(
                f"UDTF {self.name!r} produced ragged output columns: {lengths}"
            )


class FunctionBasedUdtf(TransformFunction):
    """Adapter wrapping a plain callable as a transform function."""

    def __init__(
        self,
        name: str,
        fn: Callable[[UdtfContext, dict[str, np.ndarray], Mapping[str, Any]],
                     dict[str, np.ndarray] | None],
        output_columns: list[ColumnSchema] | None = None,
    ) -> None:
        if not name:
            raise ExecutionError("transform function requires a name")
        self.name = name
        self._fn = fn
        self._output_columns = output_columns

    def output_schema(self, params: Mapping[str, Any]) -> list[ColumnSchema] | None:
        return self._output_columns

    def process(self, ctx, args, params):
        return self._fn(ctx, args, params)
