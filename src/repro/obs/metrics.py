"""Typed metrics registry: every metric is declared once, with a unit.

A flat string-keyed counter dict hides two failure modes: a typo silently
creates a new counter, and nobody can enumerate what the system measures.
This module replaces it with *declared instruments*:

* :class:`Counter` — a monotonically increasing total (``rows_scanned``).
* :class:`Gauge` — a level that goes up and down, clamped at zero, with a
  high-water mark (``pipeline_inflight_bytes``); *watermark* gauges only
  track the maximum ever observed (``peak_batch_bytes``).
* :class:`Histogram` — a value distribution summarised as
  count/sum/min/max (``query_seconds``).

The static :data:`CATALOG` below is the only way a metric exists — name,
kind, unit, description, and the module that emits it.  Asking a
:class:`MetricsRegistry` for a name the catalog does not declare raises.
``docs/metrics_reference.md`` renders this catalog and
``tests/test_docs_drift.py`` fails when the two diverge.

Engines emit through the instrument they name — ``counter(name).add(n)``,
``gauge(name).add(delta)`` / ``.set(level)`` / ``.observe_max(v)``,
``histogram(name).observe(v)`` — and hot paths resolve each instrument
once, not once per batch.  Reads are typed too: ``Counter.value``,
``Gauge.now`` / ``.peak``, ``Histogram.stats()``.

Thread safety: the registry guards its instrument table with one lock and
each instrument guards its own state with another; registry locks are never
held while an instrument lock is taken, so there is no ordering hazard.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

__all__ = [
    "InstrumentSpec",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "all_registries",
    "declared_instruments",
    "catalog_markdown_table",
    "CATALOG",
]

#: Weak set of every live registry, for exporters that want a cluster-wide
#: snapshot (e.g. the benchmark trace artifacts) without threading a handle
#: through every engine.
_REGISTRIES: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def all_registries() -> list["MetricsRegistry"]:
    """Every registry still alive, in no particular order."""
    return list(_REGISTRIES)


@dataclass(frozen=True)
class InstrumentSpec:
    """The declaration of one instrument."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str  # "rows", "bytes", "seconds", "frames", "1" (dimensionless)
    description: str
    module: str  # the module that emits it
    watermark: bool = False  # gauges only: high-water mark, no level

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown instrument kind {self.kind!r}")
        if self.watermark and self.kind != "gauge":
            raise ValueError("watermark=True is only meaningful for gauges")


def _spec(name: str, kind: str, unit: str, description: str, module: str,
          watermark: bool = False) -> InstrumentSpec:
    return InstrumentSpec(name, kind, unit, description, module, watermark)


#: Every instrument the engines emit, declared exactly once.  Keep sorted by
#: module, then name; ``docs/metrics_reference.md`` mirrors this table and a
#: drift test holds the two equal.
CATALOG: dict[str, InstrumentSpec] = {
    spec.name: spec
    for spec in [
        # -- repro.vertica.cluster / table scans -------------------------------
        _spec("rows_loaded", "counter", "rows",
              "Rows inserted through bulk_load / INSERT / COPY.",
              "repro.vertica.cluster"),
        _spec("queries_executed", "counter", "1",
              "SQL statements executed through VerticaCluster.sql.",
              "repro.vertica.cluster"),
        _spec("rows_scanned", "counter", "rows",
              "Rows decoded from segment row groups by table scans.",
              "repro.vertica.cluster"),
        _spec("bytes_scanned", "counter", "bytes",
              "Decoded (in-memory) bytes produced by table scans.",
              "repro.vertica.cluster"),
        _spec("batches_scanned", "counter", "1",
              "Batches emitted by the per-node scan sources.",
              "repro.vertica.cluster"),
        _spec("rows_streamed", "counter", "rows",
              "Rows delivered through the streaming scan sources.",
              "repro.vertica.cluster"),
        _spec("rowgroups_pruned", "counter", "1",
              "Row groups skipped by zone-map range pushdown.",
              "repro.vertica.cluster"),
        _spec("buddy_scans", "counter", "1",
              "Segment scans served by a buddy replica after node failure.",
              "repro.vertica.cluster"),
        _spec("failovers", "counter", "1",
              "Scans/streams failed over to a buddy replica (incl. mid-stream).",
              "repro.vertica.cluster"),
        _spec("peak_batch_bytes", "gauge", "bytes",
              "Largest single scan batch observed (high-water mark).",
              "repro.vertica.cluster", watermark=True),
        _spec("query_seconds", "histogram", "seconds",
              "Wall time of each SQL statement (parse + execute).",
              "repro.vertica.cluster"),
        # -- repro.vertica.pipeline / executor ---------------------------------
        _spec("pipeline_inflight_bytes", "gauge", "bytes",
              "Bytes of scan batches produced but not yet consumed.",
              "repro.vertica.pipeline"),
        _spec("pipeline_inflight_batches", "gauge", "1",
              "Scan batches produced but not yet consumed.",
              "repro.vertica.pipeline"),
        _spec("pipeline_backpressure_seconds", "counter", "seconds",
              "Total time producers spent blocked on full batch queues.",
              "repro.vertica.pipeline"),
        _spec("udtf_instances", "counter", "1",
              "Transform-function instances fanned out by the executor.",
              "repro.vertica.executor"),
        _spec("shuffle_bytes", "counter", "bytes",
              "Bytes moved across nodes by PARTITION BY hash shuffles.",
              "repro.vertica.executor"),
        _spec("join_rows_scanned", "counter", "rows",
              "Rows read from both sides of a hash join.",
              "repro.vertica.joins"),
        _spec("join_rows_produced", "counter", "rows",
              "Rows emitted by hash joins.",
              "repro.vertica.joins"),
        # -- repro.vertica.txn / MVCC ------------------------------------------
        _spec("wos_rows", "gauge", "rows",
              "Rows resident in write-optimized (WOS) buffers, pre-moveout.",
              "repro.vertica.table"),
        _spec("delete_vector_rows", "gauge", "rows",
              "Live delete-vector entries not yet purged by mergeout.",
              "repro.vertica.txn.mutations"),
        _spec("rows_deleted", "counter", "rows",
              "Rows marked deleted by SQL DELETE statements.",
              "repro.vertica.txn.mutations"),
        _spec("rows_updated", "counter", "rows",
              "Rows rewritten (delete + reinsert) by SQL UPDATE statements.",
              "repro.vertica.txn.mutations"),
        _spec("mergeout_bytes_rewritten", "counter", "bytes",
              "Encoded bytes rewritten by Tuple Mover mergeout passes.",
              "repro.vertica.txn.mover"),
        _spec("mover_restarts", "counter", "1",
              "Tuple Mover passes completed after an earlier crashed pass.",
              "repro.vertica.txn.mover"),
        _spec("dfs_read_repairs", "counter", "1",
              "DFS reads that healed lost or corrupt replicas (read-repair).",
              "repro.vertica.dfs"),
        _spec("current_epoch", "gauge", "1",
              "Committed epoch watermark of the cluster's epoch clock.",
              "repro.vertica.txn.epochs"),
        # -- repro.vertica.odbc ------------------------------------------------
        _spec("odbc_connections_opened", "counter", "1",
              "ODBC-style client connections opened.",
              "repro.vertica.odbc"),
        _spec("odbc_bytes", "counter", "bytes",
              "Wire bytes shipped to ODBC clients.",
              "repro.vertica.odbc"),
        _spec("odbc_rows", "counter", "rows",
              "Rows shipped to ODBC clients.",
              "repro.vertica.odbc"),
        # -- repro.transfer ----------------------------------------------------
        _spec("odbc_loads", "counter", "1",
              "ODBC loader invocations (single or parallel).",
              "repro.transfer.odbc_loader"),
        _spec("odbc_parallel_connections", "counter", "1",
              "Connections opened by the parallel ODBC loader.",
              "repro.transfer.odbc_loader"),
        _spec("vft_bytes_sent", "counter", "bytes",
              "Encoded VFT frame bytes sent by ExportToDistributedR.",
              "repro.transfer.vft"),
        _spec("vft_rows_sent", "counter", "rows",
              "Rows streamed out by ExportToDistributedR instances.",
              "repro.transfer.vft"),
        _spec("vft_bytes_received", "counter", "bytes",
              "VFT frame bytes staged into worker shm buffers.",
              "repro.transfer.vft"),
        _spec("vft_rows_received", "counter", "rows",
              "Rows received by VFT transfer targets.",
              "repro.transfer.vft"),
        _spec("vft_frames_received", "counter", "frames",
              "Wire frames received by VFT transfer targets.",
              "repro.transfer.vft"),
        _spec("vft_frame_bytes", "histogram", "bytes",
              "Size distribution of individual VFT wire frames.",
              "repro.transfer.vft"),
        _spec("vft_blocks_forwarded", "counter", "blocks",
              "Column blocks VFT put on the wire as stored (whole row groups).",
              "repro.transfer.vft"),
        _spec("vft_blocks_reencoded", "counter", "blocks",
              "Column blocks VFT compressed afresh for a frame.",
              "repro.transfer.vft"),
        _spec("transfer_retries", "counter", "1",
              "VFT retries: frame resends plus whole-transfer re-attempts.",
              "repro.transfer.vft"),
        _spec("vft_frames_deduped", "counter", "frames",
              "Duplicate VFT frames skipped by resend-from-last-acked dedup.",
              "repro.transfer.vft"),
        _spec("vft_db_seconds", "counter", "seconds",
              "Database half of VFT loads (scan/frame/stream).",
              "repro.transfer.db2darray"),
        _spec("vft_r_seconds", "counter", "seconds",
              "R half of VFT loads (parse staged bytes, build darray).",
              "repro.transfer.db2darray"),
        # -- repro.dr ----------------------------------------------------------
        _spec("dr_tasks", "counter", "1",
              "foreach partition tasks dispatched to the instance pool.",
              "repro.dr.session"),
        _spec("dr_remote_partition_fetches", "counter", "1",
              "Partition reads served from a non-local worker.",
              "repro.dr.dobject"),
        _spec("dr_remote_bytes", "counter", "bytes",
              "Bytes moved by remote partition fetches.",
              "repro.dr.dobject"),
        _spec("dr_repartition_bytes", "counter", "bytes",
              "Bytes moved between workers by repartition().",
              "repro.dr.darray"),
        _spec("tasks_reexecuted", "counter", "1",
              "DR tasks re-executed on a surviving worker after a failure.",
              "repro.dr.session"),
        _spec("dr_worker_failures", "counter", "1",
              "DR workers marked dead (injected or organic).",
              "repro.dr.worker"),
        # -- repro.faults ------------------------------------------------------
        _spec("faults_injected", "counter", "1",
              "Faults fired by an armed FaultPlan (all kinds).",
              "repro.faults.plan"),
        # -- repro.deploy ------------------------------------------------------
        _spec("models_deployed", "counter", "1",
              "Models serialized into DFS + R_Models by deploy_model.",
              "repro.deploy.deploy"),
        _spec("model_staleness_epochs", "gauge", "1",
              "Epochs the last refreshed model lagged its table "
              "(peak = worst staleness any REFRESH MODEL observed).",
              "repro.deploy.refresh"),
        _spec("rows_predicted", "counter", "rows",
              "Rows scored by in-database prediction functions.",
              "repro.deploy.predict_functions"),
        # -- repro.yarn --------------------------------------------------------
        _spec("yarn_containers_granted", "counter", "1",
              "Containers allocated by the resource manager.",
              "repro.yarn.resource_manager"),
        _spec("yarn_containers_released", "counter", "1",
              "Containers released back to the resource manager.",
              "repro.yarn.resource_manager"),
        # -- repro.spark -------------------------------------------------------
        _spec("spark_tasks", "counter", "1",
              "Tasks dispatched by the Spark comparator context.",
              "repro.spark.context"),
        _spec("rdd_partitions_computed", "counter", "1",
              "RDD partitions read from the DFS (each once, then cached).",
              "repro.spark.context"),
        _spec("rdd_cache_hits", "counter", "1",
              "RDD partition accesses served from the cache.",
              "repro.spark.context"),
        # -- repro.serving -----------------------------------------------------
        _spec("sessions_active", "gauge", "1",
              "Serving sessions currently open against the Server.",
              "repro.serving.server"),
        _spec("statements_served", "counter", "1",
              "Statements completed through serving sessions (cached or run).",
              "repro.serving.server"),
        _spec("statements_rejected", "counter", "1",
              "Statements refused by admission control (queue full/timeout).",
              "repro.serving.pools"),
        _spec("admission_queue_seconds", "histogram", "seconds",
              "Time admitted statements waited for a pool execution slot.",
              "repro.serving.pools"),
        _spec("plan_cache_hits", "counter", "1",
              "Statements that reused a cached parse + semantic analysis.",
              "repro.serving.cache"),
        _spec("plan_cache_misses", "counter", "1",
              "Statements that parsed and analyzed fresh (cache cold/evicted).",
              "repro.serving.cache"),
        _spec("result_cache_hits", "counter", "1",
              "SELECT statements answered from the epoch-keyed result cache.",
              "repro.serving.cache"),
        _spec("result_cache_misses", "counter", "1",
              "Cacheable SELECTs that executed because no fresh entry existed.",
              "repro.serving.cache"),
        # -- repro.aqp -----------------------------------------------------
        _spec("samples_built", "counter", "1",
              "Stored samples materialized by CREATE SAMPLE.",
              "repro.aqp.build"),
        _spec("aqp_rewrites", "counter", "1",
              "WITHIN queries answered approximately from a stored sample.",
              "repro.aqp.rewrite"),
        _spec("aqp_fallbacks", "counter", "1",
              "WITHIN queries that fell back to exact execution "
              "(no sample, empty sample, or error bound unmet).",
              "repro.aqp.rewrite"),
        _spec("sample_rows_folded", "counter", "rows",
              "Base-table delta rows folded into samples by REFRESH passes.",
              "repro.aqp.refresh"),
        _spec("sample_rebuilds", "counter", "1",
              "Sample refreshes that fell back to a from-scratch rebuild "
              "(deletes in the window or AHM advanced past the stamp).",
              "repro.aqp.refresh"),
        _spec("sample_staleness_epochs", "gauge", "1",
              "Epochs between a sample's commit stamp and its base table's "
              "mutation epoch, observed at each refresh pass.",
              "repro.aqp.refresh"),
    ]
}


def declared_instruments() -> list[InstrumentSpec]:
    """The static catalog, sorted by (module, name) for stable rendering."""
    return sorted(CATALOG.values(), key=lambda s: (s.module, s.name))


def catalog_markdown_table() -> str:
    """Render the catalog as the markdown table used by the docs.

    ``python -m repro.obs.metrics`` prints this; ``docs/metrics_reference.md``
    embeds it and ``tests/test_docs_drift.py`` keeps the two in sync.
    """
    lines = [
        "| name | type | unit | emitted by | description |",
        "|---|---|---|---|---|",
    ]
    for spec in declared_instruments():
        kind = "gauge (watermark)" if spec.watermark else spec.kind
        lines.append(
            f"| `{spec.name}` | {kind} | {spec.unit} | `{spec.module}` "
            f"| {spec.description} |"
        )
    return "\n".join(lines)


# -- instruments ---------------------------------------------------------------


class _Instrument:
    """Base: spec + per-instrument lock."""

    def __init__(self, spec: InstrumentSpec) -> None:
        self.spec = spec
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.spec.name

    def snapshot_into(self, out: dict[str, float]) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing total."""

    def __init__(self, spec: InstrumentSpec) -> None:
        super().__init__(spec)
        self._value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} is monotonic; got negative {amount}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot_into(self, out: dict[str, float]) -> None:
        out[self.name] = self.value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge(_Instrument):
    """A level with a high-water mark; levels never go below zero.

    Level gauges snapshot as ``<name>_now`` / ``<name>_peak``; watermark
    gauges (``spec.watermark``) only track the maximum ever observed and
    snapshot under the bare name.
    """

    def __init__(self, spec: InstrumentSpec) -> None:
        super().__init__(spec)
        self._now = 0.0
        self._peak = 0.0

    def add(self, delta: float) -> float:
        """Adjust the level; returns the new (clamped) level.

        The clamp matters after :meth:`reset`: in-flight streams that
        charged the gauge before the reset still decrement it afterwards,
        and without the clamp the level goes (and stays) negative.
        """
        with self._lock:
            self._now = max(0.0, self._now + delta)
            if self._now > self._peak:
                self._peak = self._now
            return self._now

    def set(self, level: float) -> None:
        """Replace the level (clamped at zero) in one step.

        Reading :attr:`now` and adding the difference is two steps, so two
        writers setting levels concurrently could leave their sum behind.
        """
        with self._lock:
            self._now = max(0.0, level)
            if self._now > self._peak:
                self._peak = self._now

    def observe_max(self, value: float) -> None:
        """Record ``value`` into the high-water mark only."""
        with self._lock:
            if value > self._peak:
                self._peak = value

    @property
    def now(self) -> float:
        with self._lock:
            return self._now

    @property
    def peak(self) -> float:
        with self._lock:
            return self._peak

    def snapshot_into(self, out: dict[str, float]) -> None:
        with self._lock:
            if self.spec.watermark:
                out[self.name] = self._peak
            else:
                out[f"{self.name}_now"] = self._now
                out[f"{self.name}_peak"] = self._peak

    def reset(self) -> None:
        with self._lock:
            self._now = 0.0
            self._peak = 0.0


class Histogram(_Instrument):
    """A value distribution summarised as count / sum / min / max."""

    def __init__(self, spec: InstrumentSpec) -> None:
        super().__init__(spec)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def stats(self) -> dict[str, float]:
        with self._lock:
            if not self._count:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0}
            return {"count": self._count, "sum": self._sum,
                    "min": self._min, "max": self._max}

    def snapshot_into(self, out: dict[str, float]) -> None:
        for key, value in self.stats().items():
            out[f"{self.name}_{key}"] = value

    def reset(self) -> None:
        with self._lock:
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")


# -- the registry --------------------------------------------------------------

_KIND_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Holds one live instrument per declared metric name.

    Every engine that emits metrics owns a registry as its ``metrics``
    attribute — :class:`~repro.vertica.cluster.VerticaCluster`,
    :class:`~repro.dr.session.DRSession`, :class:`~repro.faults.plan
    .FaultPlan`, the YARN ``ResourceManager`` and the Spark comparator's
    ``SparkContext`` — so concurrently running engines never share values.
    An instrument is created on first use and lives as long as the
    registry; :meth:`reset` zeroes it in place, so a resolved handle stays
    valid.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        _REGISTRIES.add(self)

    def _get(self, name: str, kind: str) -> _Instrument:
        spec = CATALOG.get(name)
        if spec is None:
            raise ValueError(
                f"metric {name!r} is not declared in the CATALOG of "
                "repro.obs.metrics"
            )
        if spec.kind != kind:
            raise TypeError(
                f"metric {name!r} is declared as a {spec.kind}, "
                f"used as a {kind}"
            )
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = _KIND_CLASSES[kind](spec)
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter")  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge")  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, "histogram")  # type: ignore[return-value]

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> dict[str, float]:
        """Flat name→value dict (gauges/histograms expand to suffixed keys)."""
        out: dict[str, float] = {}
        for instrument in self.instruments():
            instrument.snapshot_into(out)
        return out

    def reset(self) -> None:
        for instrument in self.instruments():
            instrument.reset()


if __name__ == "__main__":  # pragma: no cover - doc generator entry point
    print(catalog_markdown_table())
