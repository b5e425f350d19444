"""User-facing loaders: ``db2darray`` and ``db2dframe`` (Figure 3, line 5).

One function call hides the whole VFT machinery: register a receiver, issue
the single ``ExportToDistributedR`` SQL query, wait for the parallel streams,
and assemble the distributed data structure.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExecutionError, NodeDownError, TransferError
from repro.faults.plan import InjectedFault
from repro.faults.retry import RetryPolicy
from repro.storage.encoding import SqlType
from repro.transfer.policies import get_policy
from repro.transfer.vft import TransferTarget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dr.darray import DArray
    from repro.dr.dframe import DFrame
    from repro.dr.session import DRSession
    from repro.vertica.cluster import VerticaCluster

__all__ = ["db2darray", "db2dframe", "db2darray_with_response"]

_NUMERIC_TYPES = (SqlType.INTEGER, SqlType.FLOAT, SqlType.BOOLEAN)


def _table_types(cluster: "VerticaCluster", table_name: str,
                 columns: list[str]) -> dict[str, SqlType]:
    table = cluster.catalog.get_table(table_name)
    return {name: table.column(name).sql_type for name in columns}


def _run_transfer(
    cluster: "VerticaCluster",
    table_name: str,
    columns: list[str],
    session: "DRSession",
    policy_name: str,
    chunk_rows: int | None,
    where: str | None,
    as_frame: bool,
    retry: RetryPolicy | None = None,
) -> "DArray | DFrame":
    if not columns:
        raise TransferError("at least one column must be transferred")
    cluster.install_standard_functions()
    sql_types = _table_types(cluster, table_name, columns)
    if not as_frame:
        non_numeric = [c for c, t in sql_types.items() if t not in _NUMERIC_TYPES]
        if non_numeric:
            raise TransferError(
                f"db2darray requires numeric columns; {non_numeric} are not "
                "(use db2dframe for mixed types)"
            )
    policy = get_policy(policy_name)
    policy.validate(cluster.node_count, session.node_count)

    if chunk_rows is None:
        chunk_rows = policy.default_chunk_rows(
            cluster.catalog.get_table(table_name).row_count,
            session.total_instances)

    retry_policy = retry if retry is not None else RetryPolicy()
    target = TransferTarget(session, policy, columns, sql_types,
                            as_frame=as_frame, retry=retry_policy)
    try:
        # Whole-transfer retry: one attempt = one export query + finalize.
        # A failed attempt leaves already-staged frames in place; the next
        # attempt's senders consult the receiver's ack cursors and resend
        # only unstaged frames (and a crashed node's segment is re-read from
        # its buddy replica), so the retried darray is bit-identical to a
        # failure-free run.  NodeDownError (node *and* buddy gone) is not
        # retryable — it propagates immediately, before any darray exists.
        attempt = 1
        while True:
            try:
                return _transfer_attempt(cluster, session, target, table_name,
                                         policy.name, chunk_rows, where,
                                         attempt)
            except NodeDownError:
                raise
            except (TransferError, ExecutionError, InjectedFault) as exc:
                if attempt >= retry_policy.max_attempts:
                    raise
                session.metrics.counter("transfer_retries").add()
                with session.tracer.span(
                    "fault.recovered", mechanism="transfer_retry",
                    table=table_name, attempt=attempt, error=str(exc)[:120],
                ):
                    pass
                retry_policy.backoff(attempt)
                attempt += 1
    finally:
        target.unregister()


def _transfer_attempt(
    cluster: "VerticaCluster",
    session: "DRSession",
    target: TransferTarget,
    table_name: str,
    policy_name: str,
    chunk_rows: int,
    where: str | None,
    attempt: int,
) -> "DArray | DFrame":
    """One export-query + finalize attempt against an existing target."""
    where_clause = f" WHERE {where}" if where else ""
    query = (
        f"SELECT ExportToDistributedR({', '.join(target.columns)} "
        f"USING PARAMETERS target='{target.token}', chunk_rows={chunk_rows}, "
        f"policy='{policy_name}') OVER (PARTITION BEST) "
        f"FROM {table_name}{where_clause}"
    )
    # The Fig 14 breakdown, measured functionally: the SQL query is the
    # DB part (scan, frame — forwarding whole stored row groups' blocks,
    # compressing any other window — and stream); finalize() is the
    # R part (parse staged bytes, build the distributed object).  The
    # cluster's "query" span and the finalize span both nest under one
    # vft.transfer span, so the same breakdown shows up in trace form.
    with session.tracer.span("vft.transfer", table=table_name,
                             policy=policy_name, attempt=attempt) as span:
        db_start = time.perf_counter()
        result = cluster.sql(query)
        db_seconds = time.perf_counter() - db_start
        expected = int(np.sum(result.column("rows_sent"))) if len(result) else 0
        # Completeness gate *before* finalize: a short transfer is retried
        # (senders resend unacked frames) without ever building a partial
        # darray or closing the staging streams.
        actual = target.rows_streamed
        if actual != expected:
            raise TransferError(
                f"transfer incomplete: UDFs reported {expected} rows, "
                f"workers received {actual}"
            )
        r_start = time.perf_counter()
        with session.tracer.span("vft.finalize"):
            loaded = target.finalize(cluster.node_count)
        r_seconds = time.perf_counter() - r_start
        span.set(rows_transferred=expected,
                 bytes_transferred=target.bytes_streamed,
                 db_seconds=db_seconds, r_seconds=r_seconds)
    session.metrics.counter("vft_db_seconds").add(db_seconds)
    session.metrics.counter("vft_r_seconds").add(r_seconds)
    return loaded


def db2darray(
    cluster: "VerticaCluster",
    table_name: str,
    columns: list[str],
    session: "DRSession",
    policy: str = "locality",
    chunk_rows: int | None = None,
    where: str | None = None,
    retry: RetryPolicy | None = None,
) -> "DArray":
    """Load numeric table columns into a distributed array via VFT.

    With ``policy="locality"`` the resulting partitions mirror the table's
    per-node segments (one partition per database node, unequal sizes);
    with ``policy="uniform"`` each worker receives an even share.
    ``chunk_rows`` is the partition-size hint, the rows buffered per frame.
    By default it is one stored row group (65 536 rows) under the locality
    policy, so each whole row group ships as the blocks the table stores,
    and table rows over receiving R instances (clipped to 1 024–262 144)
    under the uniform policy, whose unit of distribution is the frame.
    ``retry`` tunes failure recovery (frame resends and whole-transfer
    re-attempts); the default policy retries up to 3 times.
    """
    return _run_transfer(cluster, table_name, columns, session, policy,
                         chunk_rows, where, as_frame=False, retry=retry)


def db2dframe(
    cluster: "VerticaCluster",
    table_name: str,
    columns: list[str],
    session: "DRSession",
    policy: str = "locality",
    chunk_rows: int | None = None,
    where: str | None = None,
    retry: RetryPolicy | None = None,
) -> "DFrame":
    """Load table columns (mixed types allowed) into a distributed frame."""
    return _run_transfer(cluster, table_name, columns, session, policy,
                         chunk_rows, where, as_frame=True, retry=retry)


def db2darray_with_response(
    cluster: "VerticaCluster",
    table_name: str,
    response_column: str,
    feature_columns: list[str],
    session: "DRSession",
    policy: str = "locality",
    chunk_rows: int | None = None,
    where: str | None = None,
    retry: RetryPolicy | None = None,
) -> tuple["DArray", "DArray"]:
    """Load ``(Y, X)`` co-partitioned arrays in one transfer.

    This is Figure 3's ``data <- db2darray("mytable", list("def"),
    list("A","B"))`` pattern: the response and the features arrive together,
    are split worker-side, and stay co-located so ``hpdglm(Y, X)`` never
    moves data.
    """
    if response_column in feature_columns:
        raise TransferError("response column cannot also be a feature")
    combined = [response_column] + list(feature_columns)
    loaded = _run_transfer(cluster, table_name, combined, session, policy,
                           chunk_rows, where, as_frame=False, retry=retry)

    from repro.dr.darray import DArray

    assignment = [loaded.worker_of(i) for i in range(loaded.npartitions)]
    response = DArray(session, npartitions=loaded.npartitions,
                      worker_assignment=assignment)
    features = DArray(session, npartitions=loaded.npartitions,
                      worker_assignment=assignment)

    def split(index: int, combined_part: np.ndarray) -> None:
        response.fill_partition(index, combined_part[:, :1])
        features.fill_partition(index, combined_part[:, 1:])
        return None

    loaded.map_partitions(split)
    loaded.free()
    return response, features
