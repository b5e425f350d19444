"""The database catalog: tables, registered transform functions, users.

A thin, thread-safe registry.  Model metadata lives in its own catalog table
(:mod:`repro.vertica.models`) because the paper gives ``R_Models`` a
queryable, table-like surface.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.errors import CatalogError
from repro.storage.encoding import SqlType
from repro.vertica.txn.epochs import EpochClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.table import Table
    from repro.vertica.udtf import TransformFunction, UdtfSignature

__all__ = ["Catalog"]


class Catalog:
    """Registry of tables and transform functions for one cluster.

    The catalog also owns the cluster-global epoch clock: every table's
    commits and every statement's snapshots resolve against it, and
    catalog-level changes (``R_Models`` redeploys) stamp their own epochs
    from the same sequence so they serialize with data mutations.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: dict[str, "Table"] = {}
        self._udtfs: dict[str, "TransformFunction"] = {}
        # Bumped by every DDL change (table create/drop, UDTF registration)
        # so prepared-plan caches can discard analyses bound to stale schema.
        self._ddl_version = 0
        self.epochs = EpochClock()

    def ddl_version(self) -> int:
        """Monotonic counter of catalog shape changes (plan-cache key)."""
        with self._lock:
            return self._ddl_version

    # -- tables ---------------------------------------------------------

    def add_table(self, table: "Table") -> None:
        key = table.name.lower()
        with self._lock:
            if key in self._tables:
                raise CatalogError(f"table {table.name!r} already exists")
            self._tables[key] = table
            self._ddl_version += 1

    def get_table(self, name: str) -> "Table":
        with self._lock:
            try:
                return self._tables[name.lower()]
            except KeyError:
                raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._tables

    def drop_table(self, name: str, if_exists: bool = False) -> "Table | None":
        """Unregister a table; returns it (``None`` when it did not exist)."""
        with self._lock:
            table = self._tables.pop(name.lower(), None)
            if table is not None:
                self._ddl_version += 1
        if table is None and not if_exists:
            raise CatalogError(f"table {name!r} does not exist")
        return table

    def table_types(self, name: str) -> dict[str, SqlType]:
        """Column name → SQL type for a registered table (analyzer binding)."""
        table = self.get_table(name)
        return {column.name: column.sql_type for column in table.user_schema}

    def table_names(self) -> list[str]:
        with self._lock:
            return sorted(t.name for t in self._tables.values())

    def tables(self) -> list["Table"]:
        """A point-in-time list of the registered tables (name order)."""
        with self._lock:
            return sorted(self._tables.values(), key=lambda t: t.name)

    # -- transform functions ---------------------------------------------

    def register_udtf(self, udtf: "TransformFunction", replace: bool = False) -> None:
        key = udtf.name.lower()
        with self._lock:
            if key in self._udtfs and not replace:
                raise CatalogError(f"transform function {udtf.name!r} already registered")
            self._udtfs[key] = udtf
            self._ddl_version += 1

    def get_udtf(self, name: str) -> "TransformFunction":
        with self._lock:
            try:
                return self._udtfs[name.lower()]
            except KeyError:
                raise CatalogError(
                    f"transform function {name!r} is not registered"
                ) from None

    def has_udtf(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._udtfs

    def udtf_signature(self, name: str) -> "UdtfSignature":
        """Declared calling convention of a registered transform function."""
        return self.get_udtf(name).signature()

    def udtf_names(self) -> list[str]:
        with self._lock:
            return sorted(self._udtfs)
