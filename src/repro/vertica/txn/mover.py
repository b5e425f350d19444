"""The Tuple Mover: background moveout (WOS → ROS) and mergeout.

Vertica's Tuple Mover is the housekeeping service that makes the
WOS/ROS split workable: *moveout* batch-converts committed WOS batches
into read-optimized rowgroups once the WOS grows past a size or age
threshold, and *mergeout* compacts accumulations of small rowgroups and
purges rows whose delete epoch precedes the Ancient History Mark.

The mover here is one daemon thread per cluster, started lazily on the
first :meth:`TupleMover.notify` (mutation statements call it) and
self-stopping after a stretch of idle cycles, so short-lived test
clusters don't leak threads.  Both operations are also callable
synchronously (:meth:`run_moveout` / :meth:`run_mergeout`) for
deterministic tests; each pass is wrapped in a ``txn.moveout`` /
``txn.mergeout`` span and feeds the ``wos_rows`` / ``delete_vector_rows``
gauges and the ``mergeout_bytes_rewritten`` counter.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.cluster import VerticaCluster
    from repro.vertica.table import Segment, Table

__all__ = ["TupleMover", "TupleMoverConfig"]


@dataclass(frozen=True)
class TupleMoverConfig:
    """Thresholds and cadence of the background mover."""

    moveout_rows: int = 4_096          # flush a segment's WOS at this size
    moveout_age_seconds: float = 1.0   # ... or once its oldest batch is this old
    mergeout_small_rows: int = 8_192   # rowgroups under this are "small"
    mergeout_min_run: int = 2          # merge runs of at least this many
    interval_seconds: float = 0.05     # background cycle cadence
    idle_cycles_before_stop: int = 100  # park the thread after this much quiet


class TupleMover:
    """Background moveout/mergeout over every segment of every table."""

    def __init__(self, cluster: "VerticaCluster",
                 config: TupleMoverConfig | None = None) -> None:
        self.cluster = cluster
        self.config = config or TupleMoverConfig()
        self._lock = threading.Lock()        # thread lifecycle
        self._pass_lock = threading.Lock()   # serializes moveout/mergeout passes
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # When each segment's oldest unflushed WOS batch was first seen.
        # Keyed by the segment itself (an ``id`` can be reused by a new
        # segment); a dropped table's segments leave it in :meth:`forget`.
        self._wos_first_seen: dict["Segment", float] = {}
        self._interrupted = False  # a pass died mid-flight (injected crash)
        self.moveout_passes = 0
        self.mergeout_passes = 0

    # -- lifecycle ---------------------------------------------------------

    def notify(self) -> None:
        """Hint that mutations happened; starts (or wakes) the thread."""
        self._wake.set()
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="tuple-mover", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        self._stop.set()
        self._wake.set()
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)

    def _run(self) -> None:
        idle = 0
        while not self._stop.is_set():
            self._wake.wait(timeout=self.config.interval_seconds)
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                moved = self.run_moveout(thresholds=True)
                merged, _ = self.run_mergeout()
                folded = self.run_sample_refresh()
            except ReproError:
                # An injected crash killed this pass.  Segment moveout and
                # mergeout are atomic (new storage is built off to the side
                # and spliced in under the segment lock), so the pass can
                # simply be re-run: the daemon survives and the next cycle
                # picks up from the last completed splice.
                moved = merged = folded = 0
            if moved or merged or folded:
                idle = 0
            else:
                idle += 1
                if idle >= self.config.idle_cycles_before_stop:
                    with self._lock:
                        if not self._wake.is_set():
                            self._thread = None
                            return

    # -- moveout -----------------------------------------------------------

    def run_moveout(self, thresholds: bool = False) -> int:
        """One moveout pass over every segment; returns rows flushed.

        With ``thresholds=True`` (the background loop) a segment's WOS is
        only flushed once it exceeds ``moveout_rows`` or its oldest
        unflushed batch has been waiting ``moveout_age_seconds``; a direct
        call flushes every committed batch unconditionally.
        """
        committed = self.cluster.catalog.epochs.current_epoch
        total = 0
        wos_gauge = self.cluster.metrics.gauge("wos_rows")
        with self._pass_lock:
            try:
                for table in self.cluster.catalog.tables():
                    for segment in table.all_segments():
                        wos_rows = segment.wos_rows
                        if wos_rows == 0:
                            self._wos_first_seen.pop(segment, None)
                            continue
                        if thresholds and not self._due(segment, wos_rows):
                            continue
                        faults = self.cluster.faults
                        if faults is not None:
                            faults.perturb("txn.moveout", table=table.name,
                                           node=segment.node_index)
                        with self.cluster.tracer.span(
                                "txn.moveout", table=table.name,
                                node=segment.node_index):
                            moved = segment.moveout(committed)
                        if moved:
                            self._wos_first_seen.pop(segment, None)
                            total += moved
                            # Gauges track primary copies; buddy WOS mirrors
                            # move in the same pass but aren't double-counted.
                            if segment in table.segments:
                                wos_gauge.add(-moved)
            except ReproError:
                # The pass died between segment splices.  Already-flushed
                # segments keep their new ROS; untouched segments keep their
                # WOS — scans see either state bit-identically.  The next
                # pass (background cycle or direct call) finishes the job.
                self._interrupted = True
                raise
            self._mark_recovered_locked("moveout")
            if total:
                self.moveout_passes += 1
        return total

    def _mark_recovered_locked(self, operation: str) -> None:
        """A pass ran to completion; if a prior one was killed, record the
        recovery (called with ``_pass_lock`` held)."""
        if not self._interrupted:
            return
        self._interrupted = False
        self.cluster.metrics.counter("mover_restarts").add()
        with self.cluster.tracer.span("fault.recovered",
                                      mechanism="mover_restart",
                                      operation=operation):
            pass

    def _due(self, segment, wos_rows: int) -> bool:
        if wos_rows >= self.config.moveout_rows:
            return True
        first_seen = self._wos_first_seen.setdefault(segment, time.monotonic())
        return time.monotonic() - first_seen >= self.config.moveout_age_seconds

    def forget(self, table: "Table") -> None:
        """Retire a dropped table: its primary WOS rows and live
        delete-vector entries leave the ``wos_rows`` / ``delete_vector_rows``
        gauges (no pass will ever move or purge them), and its segments
        leave the moveout age book.  Serialized with passes, so a pass
        that already flushed part of the table is not counted twice."""
        with self._pass_lock:
            metrics = self.cluster.metrics
            metrics.gauge("wos_rows").add(
                -sum(segment.wos_rows for segment in table.segments))
            metrics.gauge("delete_vector_rows").add(
                -sum(len(segment.delete_vector) for segment in table.segments))
            for segment in table.all_segments():
                self._wos_first_seen.pop(segment, None)

    # -- mergeout ----------------------------------------------------------

    def run_mergeout(self) -> tuple[int, int]:
        """One mergeout pass; returns (bytes rewritten, rows purged).

        Only storage at-or-before the AHM is eligible; advancing the AHM
        (``cluster.advance_ahm()``) is what opens history up for purging.
        """
        ahm = self.cluster.catalog.epochs.ancient_history_mark
        total_bytes = 0
        total_purged = 0
        rewritten = self.cluster.metrics.counter("mergeout_bytes_rewritten")
        delete_vector_rows = self.cluster.metrics.gauge("delete_vector_rows")
        with self._pass_lock:
            try:
                for table in self.cluster.catalog.tables():
                    for segment in table.all_segments():
                        if not segment.has_mergeout_work(
                                ahm, small_rows=self.config.mergeout_small_rows,
                                min_run=self.config.mergeout_min_run):
                            continue
                        faults = self.cluster.faults
                        if faults is not None:
                            faults.perturb("txn.mergeout", table=table.name,
                                           node=segment.node_index)
                        with self.cluster.tracer.span(
                                "txn.mergeout", table=table.name,
                                node=segment.node_index):
                            nbytes, purged = segment.mergeout(
                                ahm,
                                small_rows=self.config.mergeout_small_rows,
                                min_run=self.config.mergeout_min_run,
                            )
                        # Charged per splice: a pass that dies on a later
                        # segment has still rewritten this one for good.
                        rewritten.add(nbytes)
                        total_bytes += nbytes
                        total_purged += purged
                        if purged:
                            table.note_purge()
                        if purged and segment in table.segments:
                            delete_vector_rows.add(-purged)
            except ReproError:
                # Same crash-safety argument as moveout: mergeout splices
                # rewritten rowgroups atomically per segment, so a killed
                # pass leaves every segment readable and re-runnable.
                self._interrupted = True
                raise
            self._mark_recovered_locked("mergeout")
            if total_bytes:
                self.mergeout_passes += 1
        return total_bytes, total_purged

    # -- sample maintenance ------------------------------------------------

    def run_sample_refresh(self) -> int:
        """Fold committed base-table deltas into stored AQP samples.

        Incremental-only (``allow_rebuild=False``): a sample whose window
        contains deletes stays stale rather than having its backing table
        dropped and rebuilt under concurrent readers; an explicit
        ``refresh_sample`` call performs rebuilds.  Returns rows folded.
        """
        if not self.cluster.aqp.records():
            return 0
        from repro.aqp.refresh import auto_refresh_samples

        return auto_refresh_samples(self.cluster)
