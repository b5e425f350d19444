"""Bulk CSV ingest: the ``COPY table FROM 'file'`` path.

"In a typical enterprise scenario, customers use standard ETL processes to
first load data into Vertica" (§2) — this module is that ETL edge: a
streaming CSV reader that parses in batches, coerces to the table schema,
and routes rows through the normal segmentation machinery.  Also provides
the writer used to stage DR-disk (ext4) datasets for the Fig 21 comparison.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import CatalogError, StorageError
from repro.storage.encoding import SqlType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster

__all__ = ["copy_from_csv", "write_csv"]

DEFAULT_BATCH_ROWS = 50_000


def copy_from_csv(
    cluster: "VerticaCluster",
    table_name: str,
    path: str | Path,
    delimiter: str = ",",
    header: bool = True,
    null_token: str = "",
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> int:
    """Stream a CSV file into an existing table; returns rows loaded.

    With ``header=True`` the file's column order is taken from its header
    (any order, must cover the table's columns); otherwise the file must
    list columns in table order.  Values equal to ``null_token`` load as
    NaN/empty-string depending on the column type.
    """
    table = cluster.catalog.get_table(table_name)
    path = Path(path)
    if not path.exists():
        raise StorageError(f"CSV file not found: {path}")
    if batch_rows < 1:
        raise CatalogError("batch_rows must be positive")

    expected = table.column_names
    total = 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        if header:
            try:
                file_columns = [c.strip() for c in next(reader)]
            except StopIteration:
                return 0
            missing = [c for c in expected if c not in file_columns]
            if missing:
                raise CatalogError(
                    f"CSV header {file_columns} missing table columns {missing}"
                )
            positions = [file_columns.index(c) for c in expected]
        else:
            positions = list(range(len(expected)))

        for batch in _batched_rows(reader, batch_rows):
            columns: dict[str, np.ndarray] = {}
            for position, column_name in zip(positions, expected):
                column = table.column(column_name)
                raw = [row[position] if position < len(row) else null_token
                       for row in batch]
                columns[column_name] = _parse_column(
                    raw, column.sql_type, null_token, column_name)
            total += table.insert(columns)
    cluster.metrics.counter("rows_loaded").add(total)
    return total


def _batched_rows(reader: Iterator[list[str]], batch_rows: int
                  ) -> Iterator[list[list[str]]]:
    batch: list[list[str]] = []
    for row in reader:
        if not row:
            continue
        batch.append(row)
        if len(batch) >= batch_rows:
            yield batch
            batch = []
    if batch:
        yield batch


def _parse_column(raw: list[str], sql_type: SqlType, null_token: str,
                  column_name: str) -> np.ndarray:
    if sql_type is SqlType.VARCHAR:
        return np.asarray(
            [None if v == null_token else v for v in raw], dtype=object)
    if sql_type is SqlType.BOOLEAN:
        truthy = {"t", "true", "1", "yes"}
        falsy = {"f", "false", "0", "no"}
        values = []
        for v in raw:
            lowered = v.strip().lower()
            if lowered in truthy:
                values.append(True)
            elif lowered in falsy or v == null_token:
                values.append(False)
            else:
                raise StorageError(
                    f"bad boolean {v!r} in column {column_name!r}")
        return np.asarray(values, dtype=bool)
    try:
        if sql_type is SqlType.INTEGER:
            return np.asarray(
                [0 if v == null_token else int(v) for v in raw], dtype=np.int64)
        return np.asarray(
            [np.nan if v == null_token else float(v) for v in raw],
            dtype=np.float64)
    except ValueError as exc:
        raise StorageError(
            f"bad {sql_type.value} value in column {column_name!r}: {exc}"
        ) from exc


def write_csv(
    path: str | Path,
    columns: dict[str, np.ndarray],
    delimiter: str = ",",
    header: bool = True,
) -> int:
    """Write per-column arrays to a CSV file; returns rows written."""
    names = list(columns)
    if not names:
        raise StorageError("write_csv requires at least one column")
    arrays = [np.atleast_1d(np.asarray(columns[name])) for name in names]
    lengths = {len(arr) for arr in arrays}
    if len(lengths) != 1:
        raise StorageError(f"ragged columns in write_csv: {lengths}")
    (rows,) = lengths
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        if header:
            writer.writerow(names)
        for i in range(rows):
            writer.writerow([_format_value(arr[i]) for arr in arrays])
    return rows


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.bool_, bool)):
        return "true" if value else "false"
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)
