"""Vectorized, node-parallel query execution.

Executes the three plan shapes from :mod:`repro.vertica.planner`:

* **Scan** — each node filters and projects its segment on a thread pool;
  the initiator concatenates, orders, and limits.
* **Aggregate** — classic two-phase MPP aggregation: nodes compute partial
  states per group, the initiator merges and evaluates the final
  expressions (AVG becomes sum/count, etc.).
* **UDTF** — the fan-out engine behind ``ExportToDistributedR`` and the
  prediction functions: one producer per node streams into bounded queues,
  one consumer per instance drains them, and the partition kind only picks
  the router.  Range routing (``PARTITION NODES``: one instance per node;
  ``PARTITION BEST``: planner-chosen chunks of each node's rows) cuts row
  positions; hash routing (``PARTITION BY``) sends equal keys to one
  instance, charging cross-node traffic to ``shuffle_bytes``.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.errors import ExecutionError, SqlAnalysisError
from repro.obs.trace import Span
from repro.vertica import expressions
from repro.vertica.expressions import (
    apply_where,
    batch_rows,
    broadcast_rows,
    evaluate_rows,
)
from repro.vertica.joins import join_sources
from repro.vertica.models import R_MODELS_TABLE_NAME
from repro.vertica.pipeline import (
    BatchQueue,
    PipelineCancelled,
    RowGroupBatch,
    batch_nbytes,
    slice_batch,
)
from repro.vertica.planner import (
    AggregatePlan,
    ScanPlan,
    UdtfPlan,
    instance_boundaries,
    plan_select,
)
from repro.vertica.pruning import extract_column_ranges
from repro.vertica.segmentation import hash64
from repro.vertica.sql import ast
from repro.vertica.sql.analyzer import ClusterProvider, ResolvedQuery, check
from repro.vertica.txn.mutations import execute_delete, execute_update
from repro.vertica.udtf import UdtfContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import Counter
    from repro.vertica.cluster import VerticaCluster
    from repro.vertica.txn.epochs import Snapshot

__all__ = ["ResultSet", "QueryExecutor"]

#: Smallest worker pool a fan-out gets; a wider cluster gets one per node.
_MIN_POOL_WORKERS = 4


class ResultSet:
    """Columnar query result with row-oriented accessors."""

    def __init__(self, column_names: list[str], columns: dict[str, np.ndarray]) -> None:
        self.column_names = list(column_names)
        self._columns = {
            name: np.atleast_1d(np.asarray(columns[name])) for name in column_names
        }
        lengths = {len(arr) for arr in self._columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged result columns: {lengths}")
        self._length = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise ExecutionError(
                f"result has no column {name!r}; columns: {self.column_names}"
            ) from None

    def as_arrays(self) -> dict[str, np.ndarray]:
        return dict(self._columns)

    def rows(self) -> list[tuple]:
        """Materialize as a list of row tuples (column order preserved).

        Each column converts in one ``tolist()`` pass (numpy scalars become
        Python scalars wholesale) instead of a per-element Python loop, so
        materializing large results doesn't dominate benchmark harness time.
        """
        if not self.column_names:
            return []
        lists = [self._columns[name].tolist() for name in self.column_names]
        return list(zip(*lists))

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if self._length != 1 or len(self.column_names) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {self._length}x{len(self.column_names)}"
            )
        return self._columns[self.column_names[0]][0]


class QueryExecutor:
    """Executes parsed statements against a cluster."""

    def __init__(self, cluster: "VerticaCluster") -> None:
        self.cluster = cluster
        self._pool_size = max(_MIN_POOL_WORKERS, cluster.node_count)

    # -- statement dispatch ---------------------------------------------------

    def execute(self, stmt: ast.Statement, user: str = "dbadmin",
                resolved: ResolvedQuery | None = None) -> ResultSet:
        """Dispatch one parsed statement.

        ``resolved`` lets a prepared-statement cache (the serving layer's
        plan cache) supply a prior semantic analysis of the *same* statement
        and skip the re-analysis; plain callers leave it ``None``.  Neither
        ``stmt`` nor ``resolved`` is modified, so both may be shared.
        """
        if resolved is None:
            resolved = self._analyze(stmt)
        if isinstance(stmt, ast.Select):
            return self._execute_select(stmt, user, resolved)
        if isinstance(stmt, ast.CreateTable):
            return self._execute_create(stmt, resolved)
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.Delete):
            deleted = execute_delete(self.cluster, stmt, resolved)
            return ResultSet(["count"],
                             {"count": np.asarray([deleted], dtype=np.int64)})
        if isinstance(stmt, ast.Update):
            updated = execute_update(self.cluster, stmt)
            return ResultSet(["count"],
                             {"count": np.asarray([updated], dtype=np.int64)})
        if isinstance(stmt, ast.DropTable):
            self.cluster.drop_table(stmt.name, if_exists=stmt.if_exists)
            return ResultSet(["status"], {"status": np.asarray(["DROP TABLE"], dtype=object)})
        if isinstance(stmt, ast.RefreshModel):
            from repro.deploy.refresh import refresh_model

            result = refresh_model(self.cluster, stmt.name, user=user)
            status = f"REFRESH MODEL ({result.strategy})"
            return ResultSet(["status"], {"status": np.asarray([status], dtype=object)})
        if isinstance(stmt, ast.CreateSample):
            from repro.aqp import build_sample

            record = build_sample(
                self.cluster, stmt.name, stmt.table, stmt.rate,
                strata_column=stmt.strata_column, seed=stmt.seed, user=user)
            status = f"CREATE SAMPLE ({record.sample_rows} rows)"
            return ResultSet(["status"], {"status": np.asarray([status], dtype=object)})
        if isinstance(stmt, ast.DropSample):
            from repro.aqp import drop_sample

            if not (stmt.if_exists and not self.cluster.aqp.exists(stmt.name)):
                drop_sample(self.cluster, stmt.name, user=user)
            return ResultSet(["status"], {"status": np.asarray(["DROP SAMPLE"], dtype=object)})
        if isinstance(stmt, ast.ShowSamples):
            return self._execute_show_samples()
        if isinstance(stmt, ast.Explain):
            return self._execute_explain(stmt.query, resolved)
        if isinstance(stmt, ast.Profile):
            return self._execute_profile(stmt.query, user, resolved)
        raise ExecutionError(f"unsupported statement type {type(stmt).__name__}")

    def analyze(self, stmt: ast.Statement) -> ResolvedQuery:
        """Public semantic-analysis entry point (prepared statements)."""
        return self._analyze(stmt)

    def _analyze(self, stmt: ast.Statement) -> ResolvedQuery:
        """Static semantic analysis: reject malformed statements before any
        snapshot resolves or scan starts (raises a typed ``SemanticError``
        carrying ``SAxxx`` diagnostics with source offsets)."""
        query = stmt.query if isinstance(stmt, (ast.Explain, ast.Profile)) else stmt
        if isinstance(query, ast.Select) and query.udtf is not None \
                and not self.cluster.catalog.has_udtf(query.udtf.name):
            # Built-in transfer/prediction functions install on first use,
            # so the analyzer binds against the same registry the UDTF
            # executor would see.
            self.cluster.install_standard_functions()
        return check(stmt, ClusterProvider(self.cluster))

    def _execute_profile(self, stmt: ast.Select, user: str,
                         resolved: ResolvedQuery) -> ResultSet:
        """Execute the query, return its operator span tree instead of rows.

        Vertica's PROFILE analogue: per-operator wall time, rows, bytes,
        and any peak-inflight watermarks, rendered as one indented text row
        per span.  The ``rows``/``bytes`` columns are subtree totals, so
        the root row reconciles with the ``rows_scanned``/``bytes_scanned``
        counter deltas for the same query.
        """
        with self.cluster.tracer.span("query") as span:
            result = self._execute_select(stmt, user, resolved)
            span.set(result_rows=len(result))
        return _render_profile(span)

    def _execute_explain(self, stmt: ast.Select,
                         resolved: ResolvedQuery) -> ResultSet:
        """Describe the physical plan as one text row per plan step."""
        lines: list[str] = []

        def scan_line(table_name: str) -> str:
            if table_name.lower() == "r_models":
                return "SCAN catalog table R_Models"
            table = self.cluster.catalog.get_table(table_name)
            counts = table.segment_row_counts()
            return (f"SCAN {table.name} [{table.row_count} rows, "
                    f"{table.node_count} segments {counts}, "
                    f"{table.segmentation.describe()}]")

        if stmt.join is not None:
            left, right = resolved.tables
            lines.append(scan_line(left.name) + f" AS {left.alias}")
            lines.append(scan_line(right.name) + f" AS {right.alias}")
            lines.append(
                f"HASH {stmt.join.kind.upper()} JOIN ON {stmt.join.condition}"
            )
        elif stmt.table is not None:
            lines.append(scan_line(stmt.table))
        if stmt.where is not None:
            lines.append(f"FILTER {stmt.where}")
        if stmt.udtf is not None:
            fanout = {
                ast.PartitionKind.BEST: "planner-chosen instances per node",
                ast.PartitionKind.NODES: "one instance per node",
                ast.PartitionKind.BY_COLUMN: "hash-partitioned by key",
            }[stmt.udtf.partition.kind]
            lines.append(f"UDTF {stmt.udtf.name} [{fanout}]")
        elif resolved.group_by or resolved.aggregates:
            keys = ", ".join(map(str, resolved.group_by)) or "<global>"
            lines.append(f"AGGREGATE partial per node, merge on initiator "
                         f"[group by {keys}]")
        if not stmt.udtf:
            projections = ("*" if stmt.select_star
                           else ", ".join(i.output_name for i in stmt.items))
            lines.append(f"PROJECT {projections}")
        if resolved.order_by:
            keys = ", ".join(
                f"{o.expr} {'ASC' if o.ascending else 'DESC'}"
                for o in resolved.order_by)
            lines.append(f"SORT {keys}")
        if stmt.limit is not None:
            lines.append(f"LIMIT {stmt.limit}")
        return ResultSet(["plan"], {"plan": np.asarray(lines, dtype=object)})

    def _execute_create(self, stmt: ast.CreateTable,
                        resolved: ResolvedQuery | None = None) -> ResultSet:
        from repro.storage.encoding import ColumnSchema, SqlType
        from repro.vertica.segmentation import HashSegmentation, RoundRobinSegmentation, Unsegmented

        # The analyzer already resolved the column types (SA210 rejected
        # unknown names); reuse them instead of re-parsing the type strings.
        if resolved is not None and resolved.create_types is not None:
            types = resolved.create_types
        else:
            types = [SqlType.from_sql_name(col.type_name) for col in stmt.columns]
        schema = [
            ColumnSchema(col.name, sql_type)
            for col, sql_type in zip(stmt.columns, types)
        ]
        if stmt.segmentation is None:
            segmentation = RoundRobinSegmentation()
        elif stmt.segmentation.kind == "hash":
            segmentation = HashSegmentation(stmt.segmentation.column)
        else:
            segmentation = Unsegmented()
        self.cluster.create_table(stmt.name, schema, segmentation=segmentation)
        return ResultSet(["status"], {"status": np.asarray(["CREATE TABLE"], dtype=object)})

    def _execute_insert(self, stmt: ast.Insert) -> ResultSet:
        table = self.cluster.catalog.get_table(stmt.table)
        inserted = table.insert_rows(stmt.rows)
        # Trickle inserts land in the WOS; hint the Tuple Mover so moveout
        # flushes them once the size/age thresholds trip.
        self.cluster.tuple_mover.notify()
        return ResultSet(["count"], {"count": np.asarray([inserted], dtype=np.int64)})

    def _execute_show_samples(self) -> ResultSet:
        """``SHOW SAMPLES``: one provenance row per registered sample."""
        records = self.cluster.aqp.records()
        columns = {
            "sample": np.asarray([r.name for r in records], dtype=object),
            "base_table": np.asarray(
                [r.base_table for r in records], dtype=object),
            "kind": np.asarray([r.kind for r in records], dtype=object),
            "rate": np.asarray([r.rate for r in records], dtype=np.float64),
            "strata_column": np.asarray(
                [r.strata_column or "" for r in records], dtype=object),
            "commit_epoch": np.asarray(
                [r.commit_epoch for r in records], dtype=np.int64),
            "base_rows": np.asarray(
                [r.base_rows for r in records], dtype=np.int64),
            "sample_rows": np.asarray(
                [r.sample_rows for r in records], dtype=np.int64),
            "owner": np.asarray([r.owner for r in records], dtype=object),
        }
        return ResultSet(list(columns), columns)

    # -- SELECT ---------------------------------------------------------------

    def _execute_select(self, stmt: ast.Select, user: str,
                        resolved: ResolvedQuery) -> ResultSet:
        # One snapshot per statement, resolved before any scan starts:
        # every node source reads the same epoch.
        snapshot = self._statement_snapshot(stmt)
        if stmt.within_error is not None:
            return self._execute_within(stmt, user, snapshot, resolved)
        tracer = self.cluster.tracer
        if stmt.join is not None:
            with tracer.span("join", table=stmt.table or ""):
                return self._execute_join_select(stmt, resolved, snapshot)
        plan = plan_select(stmt, resolved)
        if isinstance(plan, UdtfPlan):
            with tracer.span("udtf", function=plan.udtf.name,
                             table=plan.table or "") as span:
                result = self._execute_udtf(plan, user, snapshot)
                span.set(result_rows=len(result))
                return result
        if isinstance(plan, AggregatePlan):
            with tracer.span("aggregate", table=plan.table or ""):
                return self._execute_aggregate(plan, snapshot=snapshot)
        with tracer.span("scan", table=plan.table or ""):
            return self._execute_scan(plan, snapshot=snapshot)

    def _execute_within(self, stmt: ast.Select, user: str,
                        snapshot: "Snapshot | None",
                        resolved: ResolvedQuery) -> ResultSet:
        """``WITHIN n% ERROR``: answer from a sample or fall back to exact.

        Both paths return the same four-column shape so callers (and the
        serving result cache) see one stable schema; the exact fallback is
        a degenerate CI of zero width with ``sample_fraction`` 1.0.
        """
        from repro.aqp import answer_within
        from repro.aqp.rewrite import RESULT_COLUMNS

        answer = answer_within(self.cluster, stmt, user, snapshot=snapshot)
        if answer is not None:
            return ResultSet(list(RESULT_COLUMNS), {
                "estimate": np.asarray([answer.estimate], dtype=np.float64),
                "ci_low": np.asarray([answer.ci_low], dtype=np.float64),
                "ci_high": np.asarray([answer.ci_high], dtype=np.float64),
                "sample_fraction": np.asarray(
                    [answer.sample_fraction], dtype=np.float64),
            })
        exact = dataclasses.replace(stmt, within_error=None, confidence=None)
        value = self._execute_select(exact, user, resolved).scalar()
        point = float(value) if value is not None else float("nan")
        arr = np.asarray([point], dtype=np.float64)
        return ResultSet(list(RESULT_COLUMNS), {
            "estimate": arr,
            "ci_low": arr.copy(),
            "ci_high": arr.copy(),
            "sample_fraction": np.asarray([1.0], dtype=np.float64),
        })

    def _statement_snapshot(self, stmt: ast.Select) -> "Snapshot | None":
        """Resolve the statement's read snapshot (``AT EPOCH`` or latest)."""
        if stmt.table.lower() == R_MODELS_TABLE_NAME:
            return None
        table = self.cluster.catalog.get_table(stmt.table)
        return table.resolve_snapshot(stmt.at_epoch)

    def _execute_join_select(self, stmt: ast.Select, resolved: ResolvedQuery,
                             snapshot: "Snapshot | None" = None) -> ResultSet:
        """Joined SELECT: build the joined side once, then run the normal
        scan/aggregate driver (WHERE included) over one probe source per
        node of the left input."""
        sources = join_sources(self.cluster, stmt, resolved.join, snapshot)
        plan = plan_select(stmt, resolved)
        if isinstance(plan, AggregatePlan):
            return self._execute_aggregate(plan, sources=sources)
        return self._execute_scan(plan, sources=sources)

    def _node_sources(self, plan, columns_needed: set[str],
                      snapshot: "Snapshot | None" = None) -> list:
        """Per-node streaming batch sources honoring zone-map pushdown."""
        return self.cluster.stream_table_per_node(
            plan.table, columns_needed,
            ranges=extract_column_ranges(plan.where),
            snapshot=snapshot)

    def _fan_out(self, task: Callable[[int], Any], count: int,
                 workers: int | None = None) -> list:
        """Run ``task(0) .. task(count - 1)``; results in index order.

        A single task runs inline on the calling thread.  Otherwise the
        tasks share a pool of ``min(count, max(4, node_count))`` threads,
        unless ``workers`` fixes the pool size; tasks start in index order.
        This is the executor's only thread-creation site.
        """
        if count <= 1:
            return [task(index) for index in range(count)]
        if workers is None:
            workers = min(count, self._pool_size)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, range(count)))

    def _execute_scan(self, plan: ScanPlan,
                      snapshot: "Snapshot | None" = None,
                      sources: list | None = None) -> ResultSet:
        """Pull batches from each source (by default the table's per-node
        streams), filter and project each batch as it streams past, and keep
        only the projection (plus a bounded top-k window under ``ORDER BY
        ... LIMIT``) in memory."""
        items = plan.items
        names = [item.output_name for item in items]
        if sources is None:
            sources = self._node_sources(plan, plan.columns_needed, snapshot)
        ascending = [o.ascending for o in plan.order_by]
        use_topk = bool(plan.order_by) and plan.limit is not None \
            and not plan.distinct
        early_limit = (plan.limit if plan.limit is not None
                       and not plan.order_by and not plan.distinct else None)
        tracer = self.cluster.tracer
        # Pool threads don't inherit the ambient span; capture it here and
        # attach each node's span explicitly.
        parent = tracer.current()

        def scan_node(node: int) -> tuple[dict[str, list], list[list]]:
            out_chunks: dict[str, list[np.ndarray]] = {name: [] for name in names}
            order_chunks: list[list[np.ndarray]] = [[] for _ in plan.order_by]
            topk = _TopK(names, plan.limit, ascending) if use_topk else None
            produced = 0
            with tracer.span("scan.node", parent=parent, node=node), \
                    closing(sources[node]()) as stream:
                for batch in stream:
                    batch = apply_where(plan.where, batch)
                    projected, order_vals = _project_batch(
                        items, names, plan.order_by, batch)
                    if topk is not None:
                        topk.add(projected, order_vals)
                        continue
                    for name in names:
                        out_chunks[name].append(projected[name])
                    for i, value in enumerate(order_vals):
                        order_chunks[i].append(value)
                    produced += batch_rows(projected)
                    if early_limit is not None and produced >= early_limit:
                        break  # LIMIT without ORDER BY: stop pulling early
            if topk is not None:
                return topk.finish()
            return out_chunks, order_chunks

        per_node = self._fan_out(scan_node, len(sources))
        outputs: dict[str, list[np.ndarray]] = {name: [] for name in names}
        order_values: list[list[np.ndarray]] = [[] for _ in plan.order_by]
        for out_chunks, order_chunks in per_node:  # merge in node order
            for name in names:
                outputs[name].extend(out_chunks[name])
            for i, chunks in enumerate(order_chunks):
                order_values[i].extend(chunks)
        return self._finish_scan(plan, names, outputs, order_values)

    def _finish_scan(self, plan: ScanPlan, names: list[str],
                     outputs: dict[str, list[np.ndarray]],
                     order_values: list[list[np.ndarray]]) -> ResultSet:
        """Initiator tail: distinct, sort, limit."""
        if not any(outputs.values()):
            # No batches survived pruning/filtering: derive empty columns
            # from the table schema / expression types instead of collapsing
            # every output to float64.
            return ResultSet(names, self._typed_empty_outputs(plan))
        columns = {name: np.concatenate(chunks) for name, chunks in outputs.items()}
        if plan.distinct:
            codes, _ = expressions.factorize([columns[name] for name in names])
            # First occurrence of each distinct row, in row order.
            keep = np.sort(np.unique(codes, return_index=True)[1])
            columns = {name: arr[keep] for name, arr in columns.items()}
            for i in range(len(order_values)):
                order_values[i] = [np.concatenate(order_values[i])[keep]] \
                    if order_values[i] else order_values[i]
        if plan.order_by:
            keys = [np.concatenate(vals) for vals in order_values]
            index = _sort_index(keys, [o.ascending for o in plan.order_by])
            columns = {name: arr[index] for name, arr in columns.items()}
        if plan.limit is not None:
            columns = {name: arr[: plan.limit] for name, arr in columns.items()}
        return ResultSet(names, columns)

    def _typed_empty_outputs(self, plan: ScanPlan) -> dict[str, np.ndarray]:
        """Zero-row projections with dtypes inferred from the table schema
        by evaluating each select expression over a schema-typed empty
        batch (mirroring what :meth:`_execute_udtf` does via the declared
        UDTF output schema)."""
        base = self.cluster.typed_empty_batch(plan.table, plan.columns_needed)
        return {item.output_name: np.atleast_1d(np.asarray(
                    expressions.evaluate(item.expr, base)))[:0]
                for item in plan.items}

    # -- aggregation ------------------------------------------------------------

    def _execute_aggregate(self, plan: AggregatePlan,
                           snapshot: "Snapshot | None" = None,
                           sources: list | None = None) -> ResultSet:
        """Fold each source's batches (by default the table's per-node
        streams) into a :class:`_GroupTable` as they stream past; a node
        holds O(groups + _FOLD_ROWS) state, never its segment.

        Join probe ``sources`` run each node's fold inside that node's
        probe-side ``scan.node`` span.
        """
        tracer = self.cluster.tracer
        parent = tracer.current()
        probe = sources is not None
        if sources is None:
            sources = self._node_sources(plan, plan.columns_needed, snapshot)

        def fold_node(node: int) -> list[_GroupTable]:
            # Batch tables queue until they cover max(_FOLD_ROWS, groups)
            # rows, so a reduce costs O(rows) per batch, not O(groups), and
            # the queue holds no more entries than those rows.  Folding
            # sooner or later gives the same bits, as a reduce adds each
            # group's entries in list order.
            tables: list[_GroupTable] = []
            queued = 0
            scan = (tracer.span("scan.node", parent=parent, node=node)
                    if probe else nullcontext(parent))
            with scan as outer, \
                    tracer.span("aggregate.node", parent=outer, node=node), \
                    closing(sources[node]()) as stream:
                for batch in stream:
                    batch = apply_where(plan.where, batch)
                    rows = batch_rows(batch)
                    if not rows:
                        continue
                    tables.append(_GroupTable.of_batch(plan, batch))
                    queued += rows
                    if queued >= max(_FOLD_ROWS, tables[0].size):
                        tables, queued = [_GroupTable.reduce(tables, plan)], 0
            return tables

        # Each node folds its batches in scan order, and the node tables
        # merge in node index order: a float SUM adds its partials in that
        # order.
        per_node = self._fan_out(fold_node, len(sources))
        return self._finalize_aggregate(plan, _GroupTable.reduce(
            [table for tables in per_node for table in tables], plan))

    def _finalize_aggregate(self, plan: AggregatePlan,
                            table: "_GroupTable") -> ResultSet:
        """Initiator tail: finalize states, project, HAVING, order, limit."""
        env = {_group_alias(i): keys for i, keys in enumerate(table.keys)}
        for j, agg in enumerate(plan.aggregates):
            env[_agg_alias(j)] = table.result(j, agg)

        names = [item.output_name for item in plan.items]
        rows = table.size
        columns = {item.output_name: evaluate_rows(_rewrite(item.expr, plan),
                                                    env, rows)
                   for item in plan.items}

        if plan.having is not None:
            mask = evaluate_rows(_rewrite(plan.having, plan), env,
                                  rows).astype(bool)
            columns = {name: arr[mask] for name, arr in columns.items()}
            env = {name: arr[mask] for name, arr in env.items()}
            rows = int(mask.sum())

        if plan.order_by:
            keys = [evaluate_rows(_rewrite(order.expr, plan), env, rows)
                    for order in plan.order_by]
            index = _sort_index(keys, [o.ascending for o in plan.order_by])
            columns = {name: arr[index] for name, arr in columns.items()}
        if plan.limit is not None:
            columns = {name: arr[: plan.limit] for name, arr in columns.items()}
        return ResultSet(names, columns)

    # -- UDTF fan-out -----------------------------------------------------------

    def _execute_udtf(self, plan: UdtfPlan, user: str,
                      snapshot: "Snapshot | None" = None) -> ResultSet:
        """Backpressured UDTF fan-out: one producer per node streams
        rowgroup-granular batches into bounded :class:`BatchQueue`\\ s, and
        one consumer per instance feeds its queues to
        :meth:`TransformFunction.process_stream`.  The queue depth bounds
        batches in flight, so a slow instance throttles the scan instead of
        the scan buffering the whole segment.

        The partition kind only picks the router that sends rows to queues:
        :class:`_RangeRouter` for ``PARTITION NODES`` / ``BEST``,
        :class:`_HashRouter` for ``PARTITION BY``.  Producers and consumers
        share one pool; the producer tasks come first, each on its own
        worker, and the routing fixes how many consumer workers suffice:

        * range: ``min(instances, pool size)``.  A producer closes its
          node's queues in instance order, each once a batch carries it past
          that instance's range, so it can only block on the earliest open
          queue of its node; the FIFO pool always runs the earliest
          unfinished instance, whose queue is therefore drained or closed.
        * hash: every instance.  Producers interleave writes across all
          instances, and an instance drains its per-node queues in node
          order, so a producer blocked on instance *i* waits for *i* to
          finish a lower node's queue; following that chain ends at node 0,
          whose queues are drained first.
        """
        cluster = self.cluster
        config = cluster.pipeline
        udtf = cluster.catalog.get_udtf(plan.udtf.name)
        sources = self._node_sources(plan, plan.columns_needed, snapshot)
        abort = threading.Event()

        def new_queue() -> BatchQueue:
            return BatchQueue(config.queue_depth, cluster.metrics, abort,
                              stall_timeout=config.stall_timeout_seconds)

        router: _RangeRouter | _HashRouter
        if plan.udtf.partition.kind is ast.PartitionKind.BY_COLUMN:
            router = _HashRouter(plan, len(sources), cluster.node_count,
                                 new_queue,
                                 cluster.metrics.counter("shuffle_bytes"))
        else:
            router = _RangeRouter(plan, self._range_boundaries(plan, snapshot),
                                  new_queue)
        instances = router.instances
        producers = len(sources)
        errors: list[BaseException] = []
        tracer = cluster.tracer
        parent = tracer.current()
        params = dict(plan.udtf.parameters)

        def produce(node: int) -> None:
            with tracer.span("udtf.producer", parent=parent, node=node), \
                    closing(sources[node]()) as stream:
                router.route(node, stream)
            for queue in router.node_queues[node]:
                queue.close()

        def run_instance(index: int) -> dict[str, np.ndarray] | None:
            node, queues = instances[index]
            ctx = UdtfContext(cluster=cluster, node_index=node,
                              instance_index=index,
                              instance_count=len(instances),
                              session_user=user)
            with tracer.span("udtf.instance", parent=parent, node=node,
                             instance=index) as span:
                if cluster.faults is not None:
                    cluster.faults.perturb("udtf.instance", node=node,
                                           instance=index)
                stream = (batch for queue in queues for batch in queue)
                first = next(stream, None)
                if first is None:
                    if not router.planned:
                        return None  # empty hash bucket: no instance
                    # Zero surviving batches: feed the instance one typed
                    # empty batch, so it still emits its (empty) output.
                    first = _bind_args(plan.udtf.args, cluster.typed_empty_batch(
                        plan.table, plan.columns_needed))
                output = udtf.process_stream(
                    ctx, itertools.chain([first], stream), params)
                for _ in stream:  # drain anything the UDTF didn't pull
                    pass
                udtf.validate_output(output)
                span.set(rows_in=sum(q.total_rows for q in queues),
                         bytes_in=sum(q.total_bytes for q in queues),
                         rows_out=batch_rows(output),
                         backpressure_s=sum(q.blocked_seconds for q in queues))
                return output

        def task(index: int) -> dict[str, np.ndarray] | None:
            try:
                if index < producers:
                    return produce(index)
                return run_instance(index - producers)
            except PipelineCancelled:
                return None
            except BaseException as exc:  # reprolint: ignore[exception-hygiene] -- recorded, re-raised after teardown
                errors.append(exc)
                abort.set()
                return None

        outputs = self._fan_out(
            task, producers + len(instances),
            workers=producers + router.consumer_workers(self._pool_size))
        cluster.metrics.counter("udtf_instances").add(sum(
            router.planned or any(q.total_batches for q in queues)
            for _, queues in instances))
        if errors:
            for _, queues in instances:
                for queue in queues:
                    queue.discard()
            raise errors[0]
        return self._collect_udtf_outputs(udtf, plan, outputs[producers:])

    def _range_boundaries(self, plan: UdtfPlan,
                          snapshot: "Snapshot | None") -> list[list[int]]:
        """Per-node instance boundaries over pre-filter row positions (see
        :func:`~repro.vertica.planner.instance_boundaries`)."""
        cluster = self.cluster
        if plan.table.lower() == R_MODELS_TABLE_NAME:
            # The catalog table is one in-memory source: a single instance
            # on node 0 takes every row it yields.
            return [[0, sys.maxsize]]
        # Boundary math must count the rows the streams will actually
        # yield, so the counts resolve at the same snapshot as the scan.
        segment_rows = cluster.catalog.get_table(
            plan.table).segment_row_counts(snapshot)
        if plan.udtf.partition.kind is ast.PartitionKind.NODES:
            return [[0, rows] for rows in segment_rows]
        return [
            instance_boundaries(rows, cluster.nodes[node].best_udtf_parallelism(
                cluster.node_rowgroup_count(plan.table, node)))
            for node, rows in enumerate(segment_rows)
        ]

    def _collect_udtf_outputs(
        self, udtf, plan: UdtfPlan,
        results: list[dict[str, np.ndarray] | None],
    ) -> ResultSet:
        """Concatenate instance outputs in instance-index order."""
        outputs = [r for r in results if r]
        if not outputs:
            declared = udtf.output_schema(dict(plan.udtf.parameters))
            if declared:
                return ResultSet(
                    [c.name for c in declared],
                    {c.name: np.empty(0, dtype=c.numpy_dtype) for c in declared},
                )
            return ResultSet([], {})
        names = list(outputs[0].keys())
        columns = {
            name: np.concatenate([np.atleast_1d(np.asarray(o[name])) for o in outputs])
            for name in names
        }
        return ResultSet(names, columns)


# -- UDTF routing -------------------------------------------------------------


class _RangeRouter:
    """``PARTITION NODES`` / ``BEST``: planned instances, each owning one
    contiguous range of its node's pre-filter row positions.

    Pieces are ``arr[lo:hi]`` views, so a batch inside one range reaches its
    instance uncopied.  WHERE runs per piece, after the cut, so the ranges
    depend neither on the filter nor on how the scan was batched.
    """

    planned = True  # every instance runs, even over zero surviving rows

    def __init__(self, plan: UdtfPlan, boundaries: list[list[int]],
                 new_queue: Callable[[], BatchQueue]) -> None:
        self.plan = plan
        self.boundaries = boundaries
        self.node_queues = [[new_queue() for _ in bounds[1:]]
                            for bounds in boundaries]
        self.instances = [(node, [queue])
                          for node, queues in enumerate(self.node_queues)
                          for queue in queues]

    def consumer_workers(self, pool_size: int) -> int:
        return min(len(self.instances), pool_size)

    def route(self, node: int, stream: Iterator[dict[str, np.ndarray]]) -> None:
        bounds, queues = self.boundaries[node], self.node_queues[node]
        closed = start = 0  # first open queue; row offset of ``batch``
        for batch in stream:
            end = start + batch_rows(batch)
            for i in range(closed, len(queues)):
                lo, hi = max(bounds[i], start), min(bounds[i + 1], end)
                if lo >= end:
                    break
                piece = apply_where(self.plan.where, slice_batch(
                    batch, lo - start, hi - start))
                if batch_rows(piece):
                    queues[i].put(_bind_args(self.plan.udtf.args, piece))
            while closed < len(queues) and bounds[closed + 1] <= end:
                queues[closed].close()
                closed += 1
            start = end


class _HashRouter:
    """``PARTITION BY``: a row goes to instance ``hash64(key) % node_count``,
    so equal keys meet in one instance; a chunk leaving its node is charged
    to ``shuffle_bytes``.  Instance *i* has one queue per node and drains
    them in node order, so it sees a key's rows in node-major scan order.
    """

    planned = False  # an instance appears with its first batch

    def __init__(self, plan: UdtfPlan, nodes: int, instances: int,
                 new_queue: Callable[[], BatchQueue],
                 shuffle_bytes: "Counter") -> None:
        self.plan = plan
        self.shuffle_bytes = shuffle_bytes
        self.node_queues = [[new_queue() for _ in range(instances)]
                            for _ in range(nodes)]
        self.instances = [(i, [queues[i] for queues in self.node_queues])
                          for i in range(instances)]

    def consumer_workers(self, pool_size: int) -> int:
        return len(self.instances)

    def route(self, node: int, stream: Iterator[dict[str, np.ndarray]]) -> None:
        queues = self.node_queues[node]
        for batch in stream:
            batch = apply_where(self.plan.where, batch)
            rows = batch_rows(batch)
            if not rows:
                continue
            args = _bind_args(self.plan.udtf.args, batch)
            keys = broadcast_rows(np.asarray(expressions.evaluate(
                self.plan.udtf.partition.expr, batch)), rows)
            destination = (hash64(keys)
                           % np.uint64(len(queues))).astype(np.int64)
            for instance, queue in enumerate(queues):
                mask = destination == instance
                if not mask.any():
                    continue
                chunk = {name: arr[mask] for name, arr in args.items()}
                if instance != node:
                    self.shuffle_bytes.add(batch_nbytes(chunk))
                queue.put(chunk)


def _bind_args(args: tuple[ast.Expr, ...],
               batch: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Evaluate UDTF arguments over one batch, named by source column (or
    ``arg<position>`` for expressions and repeats).  Arguments that are all
    distinct bare columns leave a row-group batch's rows as stored, so the
    bound batch keeps its provenance."""
    rows = batch_rows(batch)
    bound: dict[str, np.ndarray] = {}
    for position, arg in enumerate(args):
        name = (arg.name if isinstance(arg, ast.ColumnRef)
                and arg.name not in bound else f"arg{position}")
        bound[name] = evaluate_rows(arg, batch, rows)
    if isinstance(batch, RowGroupBatch) and all(
            isinstance(arg, ast.ColumnRef) and arg.key == name
            for arg, name in zip(args, bound)):
        return RowGroupBatch(bound, batch.rowgroup, batch.offset)
    return bound


# -- aggregation state --------------------------------------------------------


_FOLD_ROWS = 32_768  # input rows a node's batch tables cover before a reduce


class _GroupTable:
    """Columnar GROUP BY state: row *g* of every array belongs to group *g*.

    ``keys`` holds one value array per GROUP BY expression.  For aggregate
    *j*, ``counts[j]`` is each group's number of non-NULL inputs (of rows,
    for ``COUNT(*)``) and ``values[j]`` its SUM, MIN or MAX so far, which
    means something only where that count is positive (``None`` for
    COUNT).  A DISTINCT aggregate keeps ``values[j] = (groups, values)``
    instead: its distinct non-NULL (group, value) pairs.

    :meth:`of_batch` folds one batch into a table, one row per group, and
    :meth:`reduce` merges tables by key: COUNT and SUM are ``np.bincount``,
    MIN and MAX a ``reduceat`` over the entries sorted by group, DISTINCT a
    sort-unique of the pairs.  Keys are factorized once per reduce
    (:func:`~repro.vertica.expressions.factorize`), so groups come out in
    sorted key order, NULL keys forming one group after every other key.
    """

    def __init__(self, size: int, keys: list[np.ndarray],
                 counts: list[np.ndarray], values: list[Any]) -> None:
        self.size = size
        self.keys = keys
        self.counts = counts
        self.values = values

    @classmethod
    def of_batch(cls, plan: AggregatePlan,
                 batch: dict[str, np.ndarray]) -> "_GroupTable":
        rows = batch_rows(batch)
        keys = [evaluate_rows(expr, batch, rows) for expr in plan.group_by]
        counts: list[np.ndarray] = []
        values: list[Any] = []
        for agg in plan.aggregates:
            arg = (np.ones(rows, dtype=bool) if agg.arg is None  # COUNT(*)
                   else evaluate_rows(agg.arg, batch, rows))
            valid = ~expressions.is_null(arg)
            counts.append(valid.astype(np.int64))
            if agg.distinct:
                values.append((np.flatnonzero(valid), arg[valid]))
            elif agg.name in ("SUM", "AVG"):
                values.append(np.where(valid, arg, 0).astype(np.float64))
            else:
                values.append(arg if agg.name in ("MIN", "MAX") else None)
        table = cls(rows, keys, counts, values)
        return cls.reduce([table], plan) if plan.group_by else table._total(plan)

    def _total(self, plan: AggregatePlan) -> "_GroupTable":
        """This ungrouped batch as its one group, reduced by whole-array
        ufuncs: its float SUM is ``np.sum``'s, a partial like any other."""
        counts, values = [], []
        for agg, count, value in zip(plan.aggregates, self.counts, self.values):
            present = count > 0
            counts.append(count.sum(keepdims=True))
            if agg.distinct:
                value = (np.zeros_like(value[0]), value[1])
            elif agg.name in ("SUM", "AVG"):
                value = value.sum(keepdims=True)
            elif agg.name in ("MIN", "MAX"):
                op = np.minimum if agg.name == "MIN" else np.maximum
                value = (op.reduce(value[present], keepdims=True)
                         if present.any() else value[:1])
            values.append(value)
        return _GroupTable(1, [], counts, values)

    @classmethod
    def reduce(cls, tables: list["_GroupTable"],
               plan: AggregatePlan) -> "_GroupTable":
        """One group per distinct key of ``tables``.  A group's entries fold
        in list order, so a float SUM adds the tables' partials in order.
        With no GROUP BY there is exactly one group, even over no rows."""
        if plan.group_by:
            codes, keys = expressions.factorize([
                _concat([table.keys[i] for table in tables])
                for i in range(len(plan.group_by))])
            size = len(keys[0])
        else:
            codes = np.zeros(sum(t.size for t in tables), dtype=np.int64)
            keys, size = [], 1
        counts: list[np.ndarray] = []
        values: list[Any] = []
        for j, agg in enumerate(plan.aggregates):
            count = _concat([table.counts[j] for table in tables])
            counts.append(np.bincount(codes, weights=count,
                                      minlength=size).astype(np.int64))
            parts = [table.values[j] for table in tables]
            if agg.distinct:
                offsets = np.cumsum([0] + [table.size for table in tables])
                values.append(_distinct_pairs(
                    _concat([codes[rows + offset]
                             for (rows, _), offset in zip(parts, offsets)],
                            np.int64),
                    _concat([distinct for _, distinct in parts])))
            elif agg.name in ("SUM", "AVG"):
                values.append(np.bincount(codes, weights=_concat(parts),
                                          minlength=size))
            elif agg.name in ("MIN", "MAX"):
                values.append(_extreme_per_group(
                    np.minimum if agg.name == "MIN" else np.maximum,
                    codes, count, _concat(parts), size))
            else:
                values.append(None)
        return cls(size, keys, counts, values)

    def result(self, j: int, agg: ast.AggregateCall) -> np.ndarray:
        """Aggregate ``j``'s value per group: NULL (``None``) for a group
        it saw no non-NULL input in, except COUNT, which is 0 there."""
        count, value = self.counts[j], self.values[j]
        if agg.distinct:
            groups, distinct = value
            count = np.bincount(groups, minlength=self.size)
            if agg.name != "COUNT":
                value = np.bincount(groups, minlength=self.size,
                                    weights=distinct.astype(np.float64))
        if agg.name == "COUNT":
            return count
        if agg.name == "AVG":
            value = value / np.maximum(count, 1)
        if count.all():
            return value
        value = value.astype(object)
        value[count == 0] = None
        return value


def _extreme_per_group(op: np.ufunc, codes: np.ndarray, counts: np.ndarray,
                       values: np.ndarray, size: int) -> np.ndarray:
    """``op`` (``np.minimum``/``np.maximum``) over each group's entries that
    carry a value: sort them by group, then one ``op.reduceat``."""
    present = counts > 0
    if not present.all():
        codes, values = codes[present], values[present]
    order = np.argsort(codes, kind="stable")
    out = np.zeros(size, dtype=values.dtype)
    if len(order):
        groups = codes[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(groups[1:] != groups[:-1]) + 1))
        out[groups[starts]] = op.reduceat(values[order], starts)
    return out


def _distinct_pairs(groups: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (group, value) pairs, sorted: one sort-unique over
    ``group * len(uniques) + value code`` (a plain sort; ``np.unique``
    hashes, which is slower here)."""
    uniques, codes = expressions.factorize_column(values)
    width = max(len(uniques), 1)
    pairs = np.sort(groups * width + codes)
    pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))[:len(pairs)]]
    return pairs // width, uniques[pairs % width]


def _concat(parts: list[np.ndarray], dtype: Any = np.float64) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype)


# -- streaming helpers --------------------------------------------------------


def _project_batch(
    items: list[ast.SelectItem], names: list[str],
    order_by: list[ast.OrderItem], batch: dict[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], list[np.ndarray]]:
    """Evaluate the select list (and ORDER BY keys) over one batch."""
    rows = batch_rows(batch)
    projected = {name: evaluate_rows(item.expr, batch, rows)
                 for item, name in zip(items, names)}
    order_vals = [evaluate_rows(order.expr, batch, rows) for order in order_by]
    return projected, order_vals


class _TopK:
    """Bounded accumulator for ``ORDER BY ... LIMIT`` under streaming.

    Buffers projected chunks and, when the buffer outgrows its threshold,
    trims to the ``limit`` best rows with the same stable multi-key sort the
    initiator applies.  A stable local trim is lossless: a row's stable rank
    among one node's rows never exceeds its global stable rank, so any row
    the global sort+limit keeps survives every local trim.  Tied rows stay
    in scan order throughout (stable sorts, chunks appended in scan order),
    so the initiator's final stable sort reproduces a full sort + limit
    bit for bit.
    """

    def __init__(self, names: list[str], limit: int,
                 ascending: list[bool]) -> None:
        self.names = names
        self.limit = limit
        self.ascending = ascending
        self.out_chunks: dict[str, list[np.ndarray]] = {n: [] for n in names}
        self.order_chunks: list[list[np.ndarray]] = [[] for _ in ascending]
        self.buffered = 0
        self.threshold = max(4 * limit, 8_192)

    def add(self, projected: dict[str, np.ndarray],
            order_vals: list[np.ndarray]) -> None:
        for name in self.names:
            self.out_chunks[name].append(projected[name])
        for i, value in enumerate(order_vals):
            self.order_chunks[i].append(value)
        self.buffered += batch_rows(projected)
        if self.buffered > self.threshold:
            self._trim()

    def _trim(self) -> None:
        keys = [np.concatenate(chunks) for chunks in self.order_chunks]
        index = _sort_index(keys, self.ascending)[: self.limit]
        for name in self.names:
            merged = np.concatenate(self.out_chunks[name])
            self.out_chunks[name] = [merged[index]]
        self.order_chunks = [[key[index]] for key in keys]
        self.buffered = len(index)

    def finish(self) -> tuple[dict[str, list[np.ndarray]],
                              list[list[np.ndarray]]]:
        return self.out_chunks, self.order_chunks


# -- PROFILE rendering --------------------------------------------------------


def _render_profile(root: Span) -> ResultSet:
    """Render a finished span tree as the PROFILE result set.

    One row per span, depth-first, with the tree shown by indentation in
    the ``operator`` column.  ``rows``/``bytes`` are subtree totals (a
    parent aggregates its children), ``wall_ms`` is the span's own wall
    time, and ``detail`` carries the remaining attributes (node/instance
    indices, peak-inflight watermarks, backpressure time, errors).
    """
    operators: list[str] = []
    wall_ms: list[float] = []
    rows_col: list[float] = []
    bytes_col: list[float] = []
    detail: list[str] = []

    def visit(span: Span, depth: int) -> None:
        operators.append("  " * depth + span.name)
        wall_ms.append(span.duration * 1e3)
        rows_col.append(span.total("rows"))
        bytes_col.append(span.total("bytes"))
        extras = {
            key: value for key, value in span.attributes.items()
            if key not in ("rows", "bytes")
        }
        if span.error is not None:
            extras["error"] = span.error
        detail.append(", ".join(
            f"{key}={value:.6g}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in sorted(extras.items())
        ))
        for child in list(span.children):
            visit(child, depth + 1)

    visit(root, 0)
    return ResultSet(
        ["operator", "wall_ms", "rows", "bytes", "detail"],
        {
            "operator": np.asarray(operators, dtype=object),
            "wall_ms": np.asarray(wall_ms, dtype=np.float64),
            "rows": np.asarray(rows_col, dtype=np.float64),
            "bytes": np.asarray(bytes_col, dtype=np.float64),
            "detail": np.asarray(detail, dtype=object),
        },
    )


# -- small helpers ------------------------------------------------------------


def _sort_index(keys: list[np.ndarray], ascending: list[bool]) -> np.ndarray:
    """Stable multi-key sort honoring per-key direction."""
    if not keys:
        return np.arange(0)
    index = np.arange(len(keys[0]))
    # Apply keys from least to most significant for a stable composite sort.
    for key, asc in reversed(list(zip(keys, ascending))):
        current = key[index]
        if current.dtype == object:  # rank strings; NULL ranks last
            current = expressions.factorize_column(current)[1]
        if asc:
            order = np.argsort(current, kind="stable")
        else:
            # Stable descending: naively reversing an ascending argsort
            # would also reverse ties, so sort the reversed array and map
            # the positions back.
            reverse_order = np.argsort(current[::-1], kind="stable")
            order = (len(current) - 1 - reverse_order)[::-1]
        index = index[order]
    return index


def _group_alias(index: int) -> str:
    return f"__group_{index}"


def _agg_alias(index: int) -> str:
    return f"__agg_{index}"


def _rewrite(expr: ast.Expr, plan: AggregatePlan) -> ast.Expr:
    """Replace aggregate calls / group expressions with their result aliases."""
    for j, agg in enumerate(plan.aggregates):
        if expr == agg:
            return ast.ColumnRef(_agg_alias(j))
    for i, group_expr in enumerate(plan.group_by):
        if expr == group_expr:
            return ast.ColumnRef(_group_alias(i))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _rewrite(expr.left, plan), _rewrite(expr.right, plan))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _rewrite(expr.operand, plan))
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(expr.name, tuple(_rewrite(a, plan) for a in expr.args))
    if isinstance(expr, ast.ColumnRef):
        raise SqlAnalysisError(
            f"column {expr.name!r} must appear in GROUP BY or inside an aggregate"
        )
    return expr
