"""The cluster facade: Vertica as a multi-node, columnar, MPP database.

:class:`VerticaCluster` ties together the catalog, per-node segments, the
SQL front end and executor, the internal DFS, and the ``R_Models`` catalog.
It is the single object users of :mod:`repro` hold onto for the database
side of the workflow.
"""

from __future__ import annotations

import threading
import time
from contextlib import closing
from pathlib import Path

import numpy as np

from repro.aqp.catalog import AqpCatalog
from repro.errors import CatalogError, NodeDownError, SqlAnalysisError, StorageError
from repro.faults.plan import FaultPlan, InjectedFault
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, add_to_current, max_to_current
from repro.storage.compression import CODECS
from repro.storage.encoding import ColumnSchema, SqlType
from repro.vertica import expressions
from repro.vertica.catalog import Catalog
from repro.vertica.dfs import DistributedFileSystem
from repro.vertica.executor import QueryExecutor, ResultSet
from repro.vertica.models import R_MODELS_TABLE_NAME, RModelsCatalog
from repro.vertica.node import DatabaseNode, NodeResources
from repro.vertica.odbc import OdbcConnection
from repro.vertica.pipeline import (
    INFLIGHT_BATCHES_GAUGE,
    INFLIGHT_BYTES_GAUGE,
    PipelineConfig,
    batch_nbytes,
    concat_batches,
    rechunk,
)
from repro.vertica.pruning import extract_column_ranges
from repro.vertica.segmentation import RoundRobinSegmentation, SegmentationScheme
from repro.vertica.sql import ast
from repro.vertica.sql.parser import parse
from repro.vertica.table import FULL_HISTORY, ROWID_COLUMN, Table
from repro.vertica.txn.mover import TupleMover, TupleMoverConfig
from repro.vertica.udtf import TransformFunction

__all__ = ["VerticaCluster"]


class VerticaCluster:
    """A simulated multi-node Vertica database."""

    def __init__(
        self,
        node_count: int = 4,
        data_dir: str | Path | None = None,
        codec: str = "zlib",
        node_resources: NodeResources | None = None,
        dfs_replication: int = 2,
        pipeline: PipelineConfig | None = None,
        mover: TupleMoverConfig | None = None,
    ) -> None:
        if node_count < 1:
            raise CatalogError("cluster requires at least one node")
        if codec not in CODECS:
            raise StorageError(
                f"unknown compression codec: {codec!r} (expected one of {CODECS})")
        self.node_count = node_count
        self.codec = codec
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.nodes = [
            DatabaseNode(i, node_resources or NodeResources()) for i in range(node_count)
        ]
        self.catalog = Catalog()
        self.dfs = DistributedFileSystem(node_count, replication=dfs_replication)
        self.r_models = RModelsCatalog()
        self.aqp = AqpCatalog()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.faults: FaultPlan | None = None
        # Let the DFS report read-repairs through the cluster's metrics
        # and tracer (it predates both in the constructor order).
        self.dfs.metrics = self.metrics
        self.dfs.tracer = self.tracer
        self.pipeline = pipeline or PipelineConfig()
        self.catalog.epochs.on_advance = self.metrics.gauge("current_epoch").add
        self.tuple_mover = TupleMover(self, mover)
        self._executor = QueryExecutor(self)
        self._lock = threading.Lock()
        self._prediction_functions_installed = False

    # -- DDL / data loading ----------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: list[ColumnSchema],
        segmentation: SegmentationScheme | None = None,
        k_safety: int = 0,
    ) -> Table:
        """Create a table; defaults to round-robin segmentation.

        ``k_safety=1`` adds buddy projections so scans survive a single
        node failure (Vertica's fault-tolerance guarantee the paper's DFS
        inherits).
        """
        if name.lower() == R_MODELS_TABLE_NAME:
            raise CatalogError(f"{name!r} is a reserved catalog table name")
        table = Table(
            name=name,
            schema=schema,
            segmentation=segmentation or RoundRobinSegmentation(),
            node_count=self.node_count,
            data_dir=(self.data_dir / name if self.data_dir else None),
            codec=self.codec,
            k_safety=k_safety,
        )
        # Enroll the table in the cluster's MVCC machinery: its inserts
        # stamp commit epochs from the shared clock, and its WOS feeds the
        # ``wos_rows`` gauge.
        table.epochs = self.catalog.epochs
        table.metrics = self.metrics
        self.catalog.add_table(table)
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        """Drop a table and retire its share of the MVCC gauges.

        The dropped table's WOS rows and live delete-vector entries will
        never be moved out or purged, so ``wos_rows`` and
        ``delete_vector_rows`` give them back here.
        """
        table = self.catalog.drop_table(name, if_exists=if_exists)
        if table is not None:
            self.tuple_mover.forget(table)

    def create_table_like(
        self, name: str, columns: dict[str, np.ndarray],
        segmentation: SegmentationScheme | None = None,
        k_safety: int = 0,
    ) -> Table:
        """Create a table whose schema is inferred from ``columns``."""
        schema = [
            ColumnSchema(col, SqlType.from_numpy(np.asarray(arr).dtype))
            for col, arr in columns.items()
        ]
        return self.create_table(name, schema, segmentation, k_safety=k_safety)

    def bulk_load(self, table_name: str, columns: dict[str, np.ndarray]) -> int:
        """COPY-style bulk insert of per-column arrays."""
        table = self.catalog.get_table(table_name)
        inserted = table.insert(columns)
        self.metrics.counter("rows_loaded").add(inserted)
        return inserted

    # -- query execution ---------------------------------------------------------

    @property
    def executor(self) -> QueryExecutor:
        """The statement executor (the serving layer fronts it directly)."""
        return self._executor

    def sql(self, query: str, user: str = "dbadmin") -> ResultSet:
        """Parse and execute one SQL statement.

        Every statement runs inside a ``query`` span (nested under the
        caller's active span when one exists — a VFT transfer, a DR task)
        and lands one ``query_seconds`` histogram sample.
        """
        start = time.perf_counter()
        with self.tracer.span(
            "query", statement=" ".join(query.split())[:200]
        ) as span:
            statement = parse(query)
            self.metrics.counter("queries_executed").add()
            result = self._executor.execute(statement, user=user)
            span.set(result_rows=len(result))
        self.metrics.histogram("query_seconds").observe(
            time.perf_counter() - start)
        return result

    def connect(self, user: str = "dbadmin") -> OdbcConnection:
        """Open an ODBC-style client connection."""
        return OdbcConnection(self, user=user)

    # -- UDTF registry --------------------------------------------------------------

    def register_udtf(self, udtf: TransformFunction, replace: bool = False) -> None:
        """Register a transform function for use in SQL."""
        self.catalog.register_udtf(udtf, replace=replace)

    def install_standard_functions(self) -> None:
        """Register the built-in prediction and transfer UDTFs.

        Imported lazily to avoid circular imports; idempotent and safe to
        call from concurrent transfers.
        """
        from repro.deploy.predict_functions import standard_prediction_functions
        from repro.transfer.vft import ExportToDistributedR

        with self._lock:
            if self._prediction_functions_installed:
                return
            for udtf in standard_prediction_functions():
                self.catalog.register_udtf(udtf, replace=True)
            self.catalog.register_udtf(ExportToDistributedR(), replace=True)
            self._prediction_functions_installed = True

    # -- MVCC conveniences ---------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The committed watermark new statements read at."""
        return self.catalog.epochs.current_epoch

    def advance_ahm(self, epoch: int | None = None) -> int:
        """Advance the Ancient History Mark (default: to the committed
        watermark), opening the history behind it up for mergeout purge;
        wakes the Tuple Mover so the purge actually happens."""
        ahm = self.catalog.epochs.advance_ahm(epoch)
        self.tuple_mover.notify()
        return ahm

    # -- node failure / failover --------------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> None:
        """Arm a fault plan: injection sites in scans, the VFT sender, UDTF
        instances, the Tuple Mover, and the DFS consult it from now on."""
        plan.bind_cluster(self)
        with self._lock:
            self.faults = plan
        self.dfs.faults = plan

    def clear_fault_plan(self) -> None:
        with self._lock:
            self.faults = None
        self.dfs.faults = None

    def fail_node(self, node: int) -> None:
        """Take a database node down (its DFS replicas go with it)."""
        self.nodes[node].fail()
        self.dfs.fail_node(node)

    def recover_node(self, node: int) -> None:
        self.nodes[node].recover()
        self.dfs.recover_node(node)

    def _buddy_for(self, table: Table, node_index: int) -> int:
        """The live buddy node for a down node's segment, or a clean
        :class:`NodeDownError` — never a hang, never a partial result."""
        buddy = table.buddy_host(node_index)
        if buddy is None:
            raise NodeDownError(
                f"node {node_index} is down and table {table.name!r} has no "
                "buddy projections (create it with k_safety=1)"
            )
        if self.nodes[buddy].is_down:
            raise NodeDownError(
                f"node {node_index} and its buddy {buddy} are both down; "
                f"segment of {table.name!r} is unavailable"
            )
        return buddy

    def _record_failover(self, table: Table, node_index: int, buddy: int,
                         resumed_after: int = 0) -> None:
        self.metrics.counter("buddy_scans").add()
        self.metrics.counter("failovers").add()
        with self.tracer.span(
            "fault.recovered", mechanism="buddy_failover", table=table.name,
            node=node_index, buddy=buddy, resumed_after_batches=resumed_after,
        ):
            pass

    # -- scan services used by the executor and transfers -----------------------------

    def node_rowgroup_count(self, table_name: str, node: int) -> int:
        if table_name.lower() == R_MODELS_TABLE_NAME:
            return 1
        return self.catalog.get_table(table_name).segments[node].rowgroup_count

    def _stream_node_with_failover(
        self, table: Table, node_index: int, columns: list[str],
        ranges: dict | None, snapshot, since_epoch: int,
    ):
        """Stream a node's segment rowgroup-wise, holding the node's scan
        slot for the duration of the stream; falls over to the buddy
        replica when the node is down (requires ``k_safety=1``).

        Failover also works *mid-stream*: if the node dies after N batches,
        the stream resumes from the buddy's replica at the same snapshot,
        skipping the N batches already delivered.  Replica segments store
        identical rowgroups, so the stitched stream is bit-identical to an
        uninterrupted primary scan.
        """
        prune_counter = self.metrics.counter("rowgroups_pruned").add
        node = self.nodes[node_index]
        delivered = 0
        if not node.is_down:
            node.acquire_scan_slot()
            died_mid_stream = False
            try:
                for batch in table.iter_node_batches(
                        node_index, columns, ranges=ranges,
                        prune_counter=prune_counter, snapshot=snapshot,
                        since_epoch=since_epoch):
                    try:
                        if self.faults is not None:
                            self.faults.perturb("scan.stream", table=table.name,
                                                node=node_index, batch=delivered)
                    except InjectedFault:
                        if not node.is_down:
                            raise
                    if node.is_down:
                        # The node died under us (injected here or failed by
                        # another thread); stop reading its storage and
                        # resume from the buddy below.
                        died_mid_stream = True
                        break
                    yield batch
                    delivered += 1
            finally:
                node.release_scan_slot()
            if not died_mid_stream:
                return
        buddy = self._buddy_for(table, node_index)
        self._record_failover(table, node_index, buddy, resumed_after=delivered)
        buddy_node = self.nodes[buddy]
        buddy_node.acquire_scan_slot()
        try:
            for index, batch in enumerate(table.iter_node_batches(
                    node_index, columns, ranges=ranges,
                    prune_counter=prune_counter, replica=True,
                    snapshot=snapshot, since_epoch=since_epoch)):
                if index < delivered:
                    continue
                yield batch
        finally:
            buddy_node.release_scan_slot()

    def stream_table_per_node(
        self, table_name: str, columns_needed: set[str],
        ranges: dict | None = None, snapshot=None,
        since_epoch: int = FULL_HISTORY,
    ) -> list:
        """Per-node streaming scan sources: the one way to read table rows.

        Returns one zero-argument callable per node; calling it opens a
        fresh iterator of rowgroup-granular batches (re-chunked to the
        pipeline's ``batch_rows``) that holds the node's scan slot, fails
        over to the buddy replica, and counts what it reads.  Each live
        batch is charged to the ``pipeline_inflight_bytes`` gauge from the
        moment it is decoded until the consumer pulls the next one, so peak
        in-flight memory is measured, not assumed.  Column validation
        happens here (eagerly), not when the stream is first pulled.

        ``columns_needed`` may name the hidden :data:`ROWID_COLUMN`;
        ``since_epoch`` narrows every source to the delta window
        ``(since_epoch, snapshot]``.
        """
        config = self.pipeline
        if table_name.lower() == R_MODELS_TABLE_NAME:
            arrays = self.r_models.as_arrays()
            if columns_needed:
                unknown = columns_needed - set(arrays)
                if unknown:
                    raise SqlAnalysisError(
                        f"unknown columns {sorted(unknown)} in R_Models"
                    )

            def models_source(arrays=arrays):
                yield arrays

            return [models_source]

        table = self.catalog.get_table(table_name)
        if columns_needed:
            unknown = [c for c in columns_needed
                       if c != ROWID_COLUMN and not table.has_column(c)]
            if unknown:
                raise SqlAnalysisError(
                    f"unknown columns {unknown} in table {table_name!r}"
                )
            scan_columns = sorted(columns_needed)
        else:
            # No columns referenced (e.g. COUNT(*)): scan the cheapest column
            # just to establish row counts.
            scan_columns = [table.user_schema[0].name]

        # Resolve the statement's snapshot now, not when the stream is
        # first pulled: all node sources must read the same epoch.
        if snapshot is None:
            snapshot = table.resolve_snapshot()

        metrics = self.metrics
        batches_scanned = metrics.counter("batches_scanned")
        rows_scanned = metrics.counter("rows_scanned")
        bytes_scanned = metrics.counter("bytes_scanned")
        rows_streamed = metrics.counter("rows_streamed")
        peak_batch_bytes = metrics.gauge("peak_batch_bytes")
        inflight_bytes = metrics.gauge(INFLIGHT_BYTES_GAUGE)
        inflight_batches = metrics.gauge(INFLIGHT_BATCHES_GAUGE)

        def make_source(node_index: int):
            def source():
                raw = self._stream_node_with_failover(
                    table, node_index, scan_columns, ranges, snapshot,
                    since_epoch)
                for batch in rechunk(raw, config.batch_rows):
                    rows = len(next(iter(batch.values()))) if batch else 0
                    nbytes = batch_nbytes(batch)
                    batches_scanned.add()
                    rows_scanned.add(rows)
                    bytes_scanned.add(nbytes)
                    rows_streamed.add(rows)
                    peak_batch_bytes.observe_max(nbytes)
                    level = inflight_bytes.add(nbytes)
                    inflight_batches.add(1)
                    # The generator body runs in the consuming thread, so
                    # the ambient span here is that consumer's scan/producer
                    # span — rows and bytes land on the right tree node.
                    add_to_current(rows=rows, bytes=nbytes)
                    max_to_current(peak_inflight_bytes=level)
                    try:
                        yield batch
                    finally:
                        inflight_bytes.add(-nbytes)
                        inflight_batches.add(-1)
            return source

        return [make_source(node) for node in range(self.node_count)]

    def gather_table(
        self, table_name: str, columns: set[str] | list[str],
        where: ast.Expr | None = None, snapshot=None,
        since_epoch: int = FULL_HISTORY,
    ) -> dict[str, np.ndarray]:
        """Collect a table's rows into arrays through the per-node sources.

        ``columns`` plus the columns ``where`` references are read, and
        ``where`` both filters each batch and prunes row groups by its
        zone-map ranges.  Nodes are read one at a time in node-index
        order, each stream closed before the next opens: rows arrive in
        node-major storage order and the gather never holds two scan slots
        at once.  No surviving row gives a typed empty batch.
        """
        needed = set(columns)
        if where is not None:
            needed |= expressions.columns_referenced(where)
        sources = self.stream_table_per_node(
            table_name, needed, ranges=extract_column_ranges(where),
            snapshot=snapshot, since_epoch=since_epoch)
        batches = []
        for node, source in enumerate(sources):
            with self.tracer.span("scan.node", node=node), \
                    closing(source()) as stream:
                for batch in stream:
                    batch = expressions.apply_where(where, batch)
                    if expressions.batch_rows(batch):
                        batches.append(batch)
        if not batches:
            return self.typed_empty_batch(table_name, needed)
        return concat_batches(batches)

    def typed_empty_batch(self, table_name: str, columns: set[str] | list[str]
                          ) -> dict[str, np.ndarray]:
        """A zero-row batch carrying the table's declared column dtypes."""
        if table_name.lower() == R_MODELS_TABLE_NAME:
            arrays = self.r_models.as_arrays()
            return {name: arr[:0] for name, arr in arrays.items()
                    if not columns or name in columns}
        table = self.catalog.get_table(table_name)
        names = sorted(columns) if columns else [table.user_schema[0].name]
        return table.segments[0].typed_empty(names)

    # -- introspection ------------------------------------------------------------------

    def table_stats(self, table_name: str) -> dict:
        """Row counts, per-segment distribution and stored size of one
        table; ``layouts`` counts its stored column blocks per layout."""
        table = self.catalog.get_table(table_name)
        counts = table.segment_row_counts()
        return {
            "table": table.name,
            "rows": table.row_count,
            "segments": counts,
            "compressed_bytes": table.compressed_size,
            "layouts": table.block_layouts(),
            "segmentation": table.segmentation.describe(),
            "skew": (max(counts) / (sum(counts) / len(counts)))
            if table.row_count else 1.0,
        }
