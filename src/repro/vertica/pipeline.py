"""Streaming batch pipeline: rowgroup-granular dataflow with backpressure.

The paper's transfer engine streams column blocks from database segments to
analytics workers in parallel; materializing a whole segment before the
first filter or frame defeats that.  This module provides the shared
vocabulary for the streaming executor, whose unit of flow is a batch (dict
of column arrays, equal-length and 1-D):

* :class:`PipelineConfig` — the knobs: ``batch_rows`` (granularity of
  batches pulled out of row groups), ``queue_depth`` (bound on batches
  queued per UDTF instance — the backpressure window) and
  ``stall_timeout_seconds`` (how long a blocked queue may wait).
* :class:`BatchQueue` — a bounded, cancellable queue connecting per-node
  scan producers to UDTF instances; producers block when a consumer falls
  behind, so peak in-flight bytes stay O(queue_depth * batch) instead of
  O(segment).

Metrics (all recorded on the cluster's :class:`~repro.obs.metrics
.MetricsRegistry`, ``cluster.metrics``):

* ``batches_scanned`` — batches emitted by the per-node scan sources;
* ``peak_batch_bytes`` — largest single batch observed;
* ``rows_streamed`` — rows delivered through the scan sources;
* ``pipeline_inflight_bytes`` — live (produced but not yet consumed)
  batch bytes, a level gauge read as ``.now`` / ``.peak``;
* ``pipeline_inflight_batches`` — same, in batch counts;
* ``pipeline_backpressure_seconds`` — time producers spent blocked on
  full queues.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from repro.errors import ExecutionError
from repro.obs.trace import add_to_current

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.rowgroup import RowGroup

__all__ = [
    "PipelineConfig",
    "BatchQueue",
    "PipelineCancelled",
    "INFLIGHT_BYTES_GAUGE",
    "INFLIGHT_BATCHES_GAUGE",
    "batch_nbytes",
    "RowGroupBatch",
    "slice_batch",
    "rechunk",
    "concat_batches",
]

INFLIGHT_BYTES_GAUGE = "pipeline_inflight_bytes"
INFLIGHT_BATCHES_GAUGE = "pipeline_inflight_batches"


@dataclass(frozen=True)
class PipelineConfig:
    """Execution-pipeline knobs, held by :class:`VerticaCluster`."""

    batch_rows: int = 8_192
    queue_depth: int = 4
    #: Seconds a producer/consumer may stay blocked on a batch queue before
    #: the wait is declared a stall and raised as a clean ExecutionError
    #: instead of hanging the query.  ``None`` (default) disables the check.
    stall_timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.batch_rows < 1:
            raise ExecutionError(f"batch_rows must be positive, got {self.batch_rows}")
        if self.queue_depth < 1:
            raise ExecutionError(f"queue_depth must be positive, got {self.queue_depth}")
        if self.stall_timeout_seconds is not None and self.stall_timeout_seconds <= 0:
            raise ExecutionError(
                f"stall_timeout_seconds must be positive, got {self.stall_timeout_seconds}"
            )


def batch_nbytes(columns: Mapping[str, np.ndarray]) -> int:
    """Approximate in-memory bytes of a batch dict (object arrays count
    pointer width only, matching how the shuffle path charges traffic)."""
    return sum(getattr(arr, "nbytes", 0) for arr in columns.values())


class RowGroupBatch(dict):
    """A batch that is rows ``[offset, offset + rows)`` of one stored row
    group, unchanged: the provenance that lets VFT put the row group's
    stored column blocks on the wire instead of re-compressing the values.

    Only a plain row slice (:func:`slice_batch`) keeps it.  A filter, a
    projection or a concatenation builds a new ``dict`` and so drops it,
    which makes "not a row-group batch" the safe reading of any batch.
    """

    __slots__ = ("rowgroup", "offset")

    def __init__(self, columns: Mapping[str, np.ndarray], rowgroup: "RowGroup",
                 offset: int = 0) -> None:
        super().__init__(columns)
        self.rowgroup = rowgroup
        self.offset = offset


def slice_batch(batch: dict[str, np.ndarray], start: int,
                stop: int) -> dict[str, np.ndarray]:
    """Rows ``[start, stop)`` of every column, as numpy views; a row-group
    batch stays one, at its shifted offset."""
    piece = {name: arr[start:stop] for name, arr in batch.items()}
    if isinstance(batch, RowGroupBatch):
        return RowGroupBatch(piece, batch.rowgroup, batch.offset + start)
    return piece


def rechunk(
    source: Iterator[dict[str, np.ndarray]], batch_rows: int
) -> Iterator[dict[str, np.ndarray]]:
    """Re-slice a stream of column dicts to at most ``batch_rows`` rows.

    Row groups are stored at load granularity (64 Ki rows by default); the
    pipeline's unit of flow control is smaller, so each decoded row group is
    sliced without copying (numpy views) before entering the dataflow.
    """
    for chunk in source:
        rows = len(next(iter(chunk.values()))) if chunk else 0
        if rows <= batch_rows:
            yield chunk
            continue
        for start in range(0, rows, batch_rows):
            yield slice_batch(chunk, start, start + batch_rows)


def concat_batches(
    batches: list[dict[str, np.ndarray]]
) -> dict[str, np.ndarray]:
    """Concatenate batch dicts (column-wise) in list order."""
    if not batches:
        return {}
    if len(batches) == 1:
        return batches[0]
    names = list(batches[0])
    return {
        name: np.concatenate([np.atleast_1d(np.asarray(b[name])) for b in batches])
        for name in names
    }


class PipelineCancelled(ExecutionError):
    """Raised inside producers/consumers when the pipeline is torn down."""


class _EndOfStream:
    __slots__ = ()


_END = _EndOfStream()


class BatchQueue:
    """A bounded producer/consumer queue of batch dicts with byte accounting.

    Producers block in :meth:`put` while the queue holds ``maxdepth``
    batches — that is the backpressure that keeps a fast scan from racing
    ahead of a slow UDTF instance.  The queue is cancellable via a shared
    abort :class:`threading.Event` so one failing instance unblocks every
    producer and consumer instead of deadlocking the thread pool; after an
    abort, :meth:`discard` releases whatever is still queued.
    """

    def __init__(self, maxdepth: int, metrics: "MetricsRegistry",
                 abort: threading.Event | None = None,
                 stall_timeout: float | None = None) -> None:
        if maxdepth < 1:
            raise ExecutionError(f"queue depth must be positive, got {maxdepth}")
        self.maxdepth = maxdepth
        # The instruments this queue charges, resolved once; each is
        # internally synchronized.
        self.backpressure = metrics.counter("pipeline_backpressure_seconds")
        self.inflight_bytes = metrics.gauge(INFLIGHT_BYTES_GAUGE)
        self.inflight_batches = metrics.gauge(INFLIGHT_BATCHES_GAUGE)
        self.abort = abort or threading.Event()
        self.stall_timeout = stall_timeout
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self.total_rows = 0
        self.total_bytes = 0
        self.total_batches = 0
        self.blocked_seconds = 0.0

    # -- producer side -----------------------------------------------------

    def put(self, batch: dict[str, np.ndarray], rows: int | None = None) -> None:
        """Enqueue one batch, blocking while the queue is full.

        Time spent blocked on a full queue is the backpressure the pipeline
        exists to apply; it accumulates on :attr:`blocked_seconds`, the
        ``pipeline_backpressure_seconds`` counter, and the producer's active
        span, so a slow consumer is visible in a PROFILE tree.
        """
        if rows is None:
            rows = len(next(iter(batch.values()))) if batch else 0
        nbytes = batch_nbytes(batch)
        blocked = 0.0
        with self._not_full:
            if len(self._items) >= self.maxdepth and not self.abort.is_set():
                wait_start = time.perf_counter()
                while (len(self._items) >= self.maxdepth
                        and not self.abort.is_set()):
                    self._not_full.wait(timeout=0.05)
                    if (self.stall_timeout is not None
                            and len(self._items) >= self.maxdepth
                            and not self.abort.is_set()
                            and time.perf_counter() - wait_start
                            > self.stall_timeout):
                        raise ExecutionError(
                            "pipeline stalled: producer blocked "
                            f"{time.perf_counter() - wait_start:.2f}s on a "
                            f"full queue (stall timeout {self.stall_timeout}s)"
                        )
                blocked = time.perf_counter() - wait_start
            if self.abort.is_set():
                raise PipelineCancelled("pipeline aborted while enqueueing")
            if self._closed:
                raise ExecutionError("put() on a closed BatchQueue")
            self._items.append((batch, rows, nbytes))
            self.total_rows += rows
            self.total_bytes += nbytes
            self.total_batches += 1
            self.blocked_seconds += blocked
            self._not_empty.notify()
        if blocked:
            add_to_current(backpressure_s=blocked)
        if blocked:
            self.backpressure.add(blocked)
        self.inflight_bytes.add(nbytes)
        self.inflight_batches.add(1)

    def close(self) -> None:
        """Signal end-of-stream; consumers drain remaining batches first."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def discard(self) -> None:
        """Close the queue and drop every batch still in it, discharging
        them from the in-flight gauges (teardown of an aborted pipeline,
        whose consumers stop pulling with batches left behind)."""
        with self._lock:
            dropped = list(self._items)
            self._items.clear()
            self._closed = True
        if dropped:
            self.inflight_bytes.add(-sum(nbytes for _, _, nbytes in dropped))
            self.inflight_batches.add(-len(dropped))

    # -- consumer side -----------------------------------------------------

    def __iter__(self) -> Iterator[dict[str, np.ndarray]]:
        while True:
            with self._not_empty:
                wait_start = None
                while not self._items and not self._closed \
                        and not self.abort.is_set():
                    if wait_start is None:
                        wait_start = time.perf_counter()
                    self._not_empty.wait(timeout=0.05)
                    if (self.stall_timeout is not None
                            and not self._items and not self._closed
                            and not self.abort.is_set()
                            and time.perf_counter() - wait_start
                            > self.stall_timeout):
                        raise ExecutionError(
                            "pipeline stalled: consumer waited "
                            f"{time.perf_counter() - wait_start:.2f}s for a "
                            f"batch (stall timeout {self.stall_timeout}s)"
                        )
                if self.abort.is_set() and not self._items:
                    raise PipelineCancelled("pipeline aborted while dequeueing")
                if not self._items:
                    return
                batch, _rows, nbytes = self._items.popleft()
                self._not_full.notify()
            self.inflight_bytes.add(-nbytes)
            self.inflight_batches.add(-1)
            yield batch
