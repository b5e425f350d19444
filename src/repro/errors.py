"""Exception hierarchy shared by every repro subsystem.

Every error raised by the library derives from :class:`ReproError` so callers
can catch one base class.  Subsystem packages re-export the subset relevant to
their public API.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StorageError(ReproError):
    """Corrupt, truncated, or otherwise unreadable columnar storage."""


class CatalogError(ReproError):
    """Unknown or duplicate catalog object (table, projection, model, UDF)."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class SqlAnalysisError(SqlError):
    """The SQL parsed but references unknown columns, tables, or functions."""


class SemanticError(SqlAnalysisError):
    """A statement was rejected by the static semantic analyzer.

    Carries the full :class:`repro.vertica.sql.analyzer.Diagnostic` list that
    the analysis pass produced (errors *and* warnings) plus the position of
    the first error, so callers can render `SAxxx` codes with source offsets.
    """

    def __init__(self, message: str, diagnostics: tuple = (),
                 position: int | None = None) -> None:
        self.diagnostics = tuple(diagnostics)
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class SemanticResolutionError(SemanticError, CatalogError):
    """A semantic diagnostic about a *missing catalog object*.

    Raised when analysis fails because a table, transform function, or model
    does not exist.  Inherits :class:`CatalogError` so callers that predate
    the analyzer and catch catalog lookups keep working unchanged.
    """


class ExecutionError(ReproError):
    """A query or UDF failed while executing."""


class SemanticParameterError(SemanticError, ExecutionError):
    """A semantic diagnostic about a UDTF's calling convention.

    Raised when a transform function call has the wrong argument count or
    types, or a missing/unknown ``USING PARAMETERS`` entry.  Inherits
    :class:`ExecutionError` because these failures historically surfaced
    while the function executed; callers catching that class keep working.
    """


class NodeDownError(ExecutionError):
    """A segment is unavailable: its node (and any buddy replica) is down.

    This is the *unrecoverable* flavor of node failure — retrying cannot
    help until an operator recovers a node — so retry loops treat it as
    fail-fast while transient transfer/execution errors are retried.
    """


class TransferError(ReproError):
    """A data transfer (ODBC or Vertica Fast Transfer) failed."""


class PartitionError(ReproError):
    """Distributed data-structure partitions are malformed or non-conforming."""


class SessionError(ReproError):
    """A Distributed R session is missing, closed, or misconfigured."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its iteration budget."""


class ModelError(ReproError):
    """A machine-learning model is invalid for the requested operation."""


class SerializationError(ReproError):
    """A model blob failed to serialize or deserialize."""


class DfsError(ReproError):
    """The internal distributed file system rejected an operation."""


class PermissionDeniedError(ReproError):
    """The current user lacks the privilege required for the operation."""


class ResourceError(ReproError):
    """The resource manager could not satisfy an allocation request."""


class SimulationError(ReproError):
    """A performance model was given inputs it cannot replay."""


class ServingError(ReproError):
    """The serving layer was used incorrectly (closed session, unknown pool)."""


class AdmissionError(ServingError):
    """A statement was rejected by admission control.

    Raised when a resource pool's queue is full or the statement waited
    longer than the pool's admission timeout for an execution slot.  The
    statement did **not** run; clients may retry against a less loaded pool.
    """
