"""ODBC-based loading: the baselines of Figures 1, 12, and 13.

Two strategies, both built on :class:`repro.vertica.odbc.OdbcConnection`:

* :func:`load_via_single_odbc` — "a common scenario with customers": one R
  process, one connection, the whole table fetched in global row order and
  converted row-at-a-time.
* :func:`load_via_parallel_odbc` — the Distributed R ODBC mode: every R
  instance opens its own connection and requests its ``1/N``-th of the
  table's rows *by global row range*.  Each range spans all database nodes
  (locality is destroyed), and the flock of simultaneous scans contends on
  the per-node scan slots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import TransferError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dr.darray import DArray
    from repro.dr.session import DRSession
    from repro.vertica.cluster import VerticaCluster

__all__ = ["load_via_single_odbc", "load_via_parallel_odbc"]


def _validate(cluster: "VerticaCluster", table_name: str, columns: list[str]) -> int:
    if not columns:
        raise TransferError("at least one column must be loaded")
    table = cluster.catalog.get_table(table_name)
    for column in columns:
        table.column(column)
    return table.row_count


def load_via_single_odbc(
    cluster: "VerticaCluster",
    table_name: str,
    columns: list[str],
    session: "DRSession",
) -> "DArray":
    """Load a table through one ODBC connection into a 1-partition darray."""
    from repro.dr.darray import DArray

    total_rows = _validate(cluster, table_name, columns)
    connection = cluster.connect()
    try:
        data = connection.fetch_row_range(table_name, columns, 0, total_rows)
    finally:
        connection.close()
    matrix = (
        np.column_stack([np.asarray(data[c], dtype=np.float64) for c in columns])
        if total_rows
        else np.empty((0, len(columns)))
    )
    result = DArray(session, npartitions=1, worker_assignment=[0])
    result.fill_partition(0, matrix)
    session.metrics.counter("odbc_loads").add()
    return result


def load_via_parallel_odbc(
    cluster: "VerticaCluster",
    table_name: str,
    columns: list[str],
    session: "DRSession",
    connections: int | None = None,
) -> "DArray":
    """Load a table through many concurrent ODBC connections.

    ``connections`` defaults to the session's total R instance count (the
    paper's 120- and 288-connection configurations).  Instance *i* fetches
    global rows ``[i*N/k, (i+1)*N/k)`` on its own connection; the resulting
    darray has one partition per connection, placed round-robin across
    workers — global row order, not segment locality.
    """
    from repro.dr.darray import DArray

    total_rows = _validate(cluster, table_name, columns)
    k = connections if connections is not None else session.total_instances
    if k < 1:
        raise TransferError("need at least one connection")
    boundaries = np.linspace(0, total_rows, k + 1).astype(int)
    worker_count = session.node_count
    assignment = [i % worker_count for i in range(k)]
    result = DArray(session, npartitions=k, worker_assignment=assignment)

    def fetch(index: int) -> int:
        start, stop = int(boundaries[index]), int(boundaries[index + 1])
        connection = cluster.connect()
        try:
            data = connection.fetch_row_range(table_name, columns, start, stop)
        finally:
            connection.close()
        rows = stop - start
        matrix = (
            np.column_stack([np.asarray(data[c], dtype=np.float64) for c in columns])
            if rows
            else np.empty((0, len(columns)))
        )
        result.fill_partition(index, matrix)
        return rows

    fetched = session.run_partition_tasks(
        [(assignment[i], fetch, i) for i in range(k)]
    )
    if sum(fetched) != total_rows:
        raise TransferError(
            f"parallel ODBC load fetched {sum(fetched)} of {total_rows} rows"
        )
    session.metrics.counter("odbc_loads").add()
    session.metrics.counter("odbc_parallel_connections").add(k)
    return result
