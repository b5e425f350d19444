"""ODBC-style connections: the slow baseline the paper improves upon.

An :class:`OdbcConnection` reproduces the three properties §1.1 and §3 blame
for slow extraction:

1. **Row orientation** — results are serialized row-at-a-time to delimited
   text and parsed back by the client (real CPU work per row, like an ODBC
   driver's conversion layer).
2. **Ordered range fetches destroy locality** — a client asking for global
   rows ``[start, stop)`` forces every node to scan its segments and filter
   by the hidden row id, then the initiator re-sorts; the rows of one range
   come from *all* nodes.
3. **Connection storms** — each concurrent fetch holds a per-node scan slot
   while scanning; hundreds of connections queue on the bounded slots,
   which is the "overwhelm the database" effect of Figure 1.
"""

from __future__ import annotations

from contextlib import closing
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExecutionError, TransferError
from repro.vertica.executor import ResultSet
from repro.vertica.table import ROWID_COLUMN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster

__all__ = ["OdbcConnection"]


class OdbcConnection:
    """One client connection with a simple cursor interface."""

    def __init__(self, cluster: "VerticaCluster", user: str = "dbadmin") -> None:
        self.cluster = cluster
        self.user = user
        self._closed = False
        self._result: ResultSet | None = None
        self._cursor_position = 0
        self.bytes_transferred = 0
        self.rows_transferred = 0
        cluster.metrics.counter("odbc_connections_opened").add()

    # -- standard cursor API -------------------------------------------------

    def execute(self, sql: str) -> "OdbcConnection":
        """Run a SQL statement; SELECT results become fetchable."""
        self._check_open()
        result = self.cluster.sql(sql, user=self.user)
        self._install_result(result)
        return self

    def fetchone(self) -> tuple | None:
        self._check_open()
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, size: int = 1000) -> list[tuple]:
        """Fetch up to ``size`` rows, charged through the text wire format."""
        self._check_open()
        if self._result is None:
            raise ExecutionError("no result set; execute a SELECT first")
        start = self._cursor_position
        stop = min(start + size, len(self._result))
        if start >= stop:
            return []
        self._cursor_position = stop
        arrays = self._result.as_arrays()
        window = {
            name: arrays[name][start:stop] for name in self._result.column_names
        }
        wire = _serialize_rows(self._result.column_names, window)
        self.bytes_transferred += len(wire)
        self.cluster.metrics.counter("odbc_bytes").add(len(wire))
        rows = _parse_rows(wire, self._column_kinds(window))
        self.rows_transferred += len(rows)
        self.cluster.metrics.counter("odbc_rows").add(len(rows))
        return rows

    def fetchall(self) -> list[tuple]:
        self._check_open()
        rows: list[tuple] = []
        while True:
            chunk = self.fetchmany(65_536)
            if not chunk:
                return rows
            rows.extend(chunk)

    def close(self) -> None:
        self._closed = True
        self._result = None

    def __enter__(self) -> "OdbcConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the range-fetch path used by parallel extraction ----------------------

    def fetch_row_range(
        self, table_name: str, columns: list[str], start_row: int, stop_row: int
    ) -> dict[str, np.ndarray]:
        """Fetch global rows ``[start_row, stop_row)`` of a table.

        This is what each of the N parallel R instances does in the paper's
        ODBC setup: instance *i* asks for its 1/N slice of the table in
        global row order.  Serving it requires every node to scan and filter
        its segments (holding a scan slot), then a global sort by row id.
        """
        self._check_open()
        if start_row < 0 or stop_row < start_row:
            raise TransferError(f"bad row range [{start_row}, {stop_row})")
        table = self.cluster.catalog.get_table(table_name)
        for column in columns:
            table.column(column)  # validates existence

        pieces: list[dict[str, np.ndarray]] = []
        for source in self.cluster.stream_table_per_node(
                table.name, {*columns, ROWID_COLUMN}):
            with closing(source()) as stream:
                for batch in stream:
                    rowids = batch[ROWID_COLUMN]
                    mask = (rowids >= start_row) & (rowids < stop_row)
                    if mask.any():
                        pieces.append(
                            {name: arr[mask] for name, arr in batch.items()})
        if not pieces:
            empty = {
                name: np.empty(0, dtype=table.column(name).numpy_dtype)
                for name in columns
            }
            return empty

        gathered = {
            name: np.concatenate([p[name] for p in pieces])
            for name in list(columns) + [ROWID_COLUMN]
        }
        order = np.argsort(gathered[ROWID_COLUMN], kind="stable")
        ordered = {name: gathered[name][order] for name in columns}

        # Round-trip through the delimited text wire format: this is the
        # row-at-a-time conversion cost inherent to ODBC extraction.
        wire = _serialize_rows(columns, ordered)
        self.bytes_transferred += len(wire)
        self.rows_transferred += len(ordered[columns[0]]) if columns else 0
        self.cluster.metrics.counter("odbc_bytes").add(len(wire))
        self.cluster.metrics.counter("odbc_rows").add(len(order))
        kinds = self._column_kinds(ordered)
        parsed_rows = _parse_rows(wire, kinds)
        out: dict[str, np.ndarray] = {}
        for i, name in enumerate(columns):
            values = [row[i] for row in parsed_rows]
            dtype = table.column(name).numpy_dtype
            out[name] = np.asarray(values, dtype=dtype)
        return out

    # -- internals -------------------------------------------------------------

    def _install_result(self, result: ResultSet) -> None:
        self._result = result
        self._cursor_position = 0

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("connection is closed")

    @staticmethod
    def _column_kinds(columns: dict[str, np.ndarray]) -> list[str]:
        kinds = []
        for arr in columns.values():
            arr = np.asarray(arr)
            if arr.dtype == object:
                kinds.append("str")
            elif arr.dtype.kind == "b":
                kinds.append("bool")
            elif arr.dtype.kind in "iu":
                kinds.append("int")
            else:
                kinds.append("float")
        return kinds


def _serialize_rows(names: list[str], columns: dict[str, np.ndarray]) -> bytes:
    """Render rows as tab-separated text, one line per row."""
    arrays = [np.atleast_1d(np.asarray(columns[name])) for name in names]
    if not arrays:
        return b""
    lines = []
    for i in range(len(arrays[0])):
        lines.append("\t".join(_format_value(arr[i]) for arr in arrays))
    return ("\n".join(lines)).encode("utf-8")


def _format_value(value) -> str:
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.bool_, bool)):
        return "t" if value else "f"
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    if value is None:
        return ""
    # Escape the wire format's structural characters in string values.
    return (str(value).replace("\\", "\\\\")
            .replace("\t", "\\t").replace("\n", "\\n"))


def _unescape_string(text: str) -> str:
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "t":
                out.append("\t")
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_rows(wire: bytes, kinds: list[str]) -> list[tuple]:
    """Parse the text wire format back into typed Python tuples."""
    if not wire:
        return []
    converters = {
        "int": int,
        "float": float,
        "bool": lambda s: s == "t",
        "str": _unescape_string,
    }
    fns = [converters[kind] for kind in kinds]
    rows = []
    for line in wire.decode("utf-8").split("\n"):
        fields = line.split("\t")
        if len(fields) != len(fns):
            raise TransferError("malformed wire row")
        rows.append(tuple(fn(field) for fn, field in zip(fns, fields)))
    return rows
