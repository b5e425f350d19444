"""Vertica Fast Transfer: the ``ExportToDistributedR`` UDF and its receiver.

The control flow mirrors §3.1 exactly:

1. ``db2darray`` (the Distributed R side) registers a :class:`TransferTarget`
   — the analog of workers listening on sockets — and issues **one** SQL
   query invoking ``ExportToDistributedR`` with the target handle, the
   partition-size hint, and the policy (Figure 4's three key arguments).
2. Vertica's planner fans the UDF out (``OVER (PARTITION BEST)``); each
   instance reads its slice of the *local* segment, buffers rows up to the
   size hint, and streams each buffer as a frame of compressed column
   blocks to the worker chosen by the distribution policy.  A buffer that
   is exactly one whole, fully visible stored row group ships the blocks
   the ROS already holds; any other buffer (WOS rows, deleted rows, a
   WHERE, a cut or spanned row group, expression arguments) is compressed
   afresh with the same codec, which gives the same bytes.
3. Workers stage incoming frames in shm buffers; after the SQL query
   returns, :meth:`TransferTarget.finalize` converts each worker's staged
   bytes into numpy matrices and fills the (previously empty) darray
   partitions (§3.3's two-step receive).
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.errors import TransferError
from repro.faults.retry import RetryPolicy
from repro.obs.trace import add_to_current
from repro.storage.encoding import ColumnSchema, SqlType
from repro.transfer.policies import TransferPolicy
from repro.transfer.streams import (
    encode_frame,
    frame_of_blocks,
    frames_to_columns,
    frames_to_matrix,
    validate_frame,
)
from repro.vertica.pipeline import RowGroupBatch, concat_batches, slice_batch
from repro.vertica.table import DEFAULT_ROWGROUP_ROWS
from repro.vertica.udtf import TransformFunction, UdtfContext, UdtfSignature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dr.darray import DArray
    from repro.dr.dframe import DFrame
    from repro.dr.session import DRSession
    from repro.dr.worker import ShmBuffer
    from repro.storage.rowgroup import RowGroup

__all__ = ["TransferTarget", "ExportToDistributedR", "lookup_target"]

_TARGETS: dict[str, "TransferTarget"] = {}
_TARGETS_LOCK = threading.Lock()


def lookup_target(token: str) -> "TransferTarget":
    """Resolve a transfer-target handle (used by the UDF instances)."""
    with _TARGETS_LOCK:
        try:
            return _TARGETS[token]
        except KeyError:
            raise TransferError(f"no registered transfer target {token!r}") from None


class TransferTarget:
    """Receiver side of one VFT load: worker endpoints + staging buffers."""

    def __init__(
        self,
        session: "DRSession",
        policy: TransferPolicy,
        columns: list[str],
        sql_types: dict[str, SqlType],
        as_frame: bool = False,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.session = session
        self.policy = policy
        self.columns = list(columns)
        self.sql_types = dict(sql_types)
        self.as_frame = as_frame
        self.retry = retry if retry is not None else RetryPolicy()
        self.token = uuid.uuid4().hex
        self._lock = threading.Lock()
        # (worker, db_node, instance) -> ShmBuffer
        self._streams: dict[tuple[int, int, int], "ShmBuffer"] = {}
        # (worker, db_node, instance) -> frames staged so far on that stream.
        # Senders number frames per stream; a frame below the acked count was
        # already staged by an earlier attempt and is dropped as a duplicate,
        # which is what makes a retried transfer bit-identical.
        self._acked: dict[tuple[int, int, int], int] = {}
        self.rows_streamed = 0
        self.bytes_streamed = 0
        # The session instruments every staged frame charges (each is
        # internally synchronized).
        metrics = session.metrics
        self.bytes_received = metrics.counter("vft_bytes_received")
        self.rows_received = metrics.counter("vft_rows_received")
        self.frames_received = metrics.counter("vft_frames_received")
        with _TARGETS_LOCK:
            _TARGETS[self.token] = self

    @property
    def worker_count(self) -> int:
        return len(self.session.workers)

    def acked_frames(self, worker_index: int, db_node: int, instance: int) -> int:
        """How many frames the stream has durably staged (the resend cursor)."""
        with self._lock:
            return self._acked.get((worker_index, db_node, instance), 0)

    def send_chunk(self, worker_index: int, db_node: int, instance: int,
                   frame: bytes, rows: int, seq: int | None = None) -> None:
        """Deliver one wire frame into the worker's shm staging buffer.

        ``seq`` is the sender's 0-based frame number on this stream.  A torn
        frame is rejected *before* staging (the ack cursor does not move, so
        the sender's resend carries the same ``seq``); a frame below the ack
        cursor is a duplicate from a retried attempt and is dropped.
        """
        if not 0 <= worker_index < self.worker_count:
            raise TransferError(f"no worker {worker_index} in transfer target")
        validate_frame(frame)
        key = (worker_index, db_node, instance)
        with self._lock:
            acked = self._acked.get(key, 0)
            if seq is not None and seq > acked:
                raise TransferError(
                    f"out-of-order frame {seq} on stream {key} (expected {acked})"
                )
            duplicate = seq is not None and seq < acked
            if not duplicate:
                buffer = self._streams.get(key)
                if buffer is None:
                    stream_id = f"vft/{self.token}/w{worker_index}/n{db_node}/i{instance}"
                    buffer = self.session.workers[worker_index].open_stream(stream_id)
                    self._streams[key] = buffer
                if seq is not None:
                    self._acked[key] = acked + 1
                self.rows_streamed += rows
                self.bytes_streamed += len(frame)
        if duplicate:
            self.session.metrics.counter("vft_frames_deduped").add()
            return
        buffer.append(frame)
        self.bytes_received.add(len(frame))
        self.rows_received.add(rows)
        self.frames_received.add()

    def finalize(self, db_node_count: int) -> "DArray | DFrame":
        """Convert staged bytes into a filled darray (or dframe).

        Returns the distributed object with one partition per database node
        (locality policy) or per worker (uniform policy); empty receivers
        still get a zero-row partition so partition counts are stable.
        """
        from repro.dr.darray import DArray
        from repro.dr.dframe import DFrame

        npartitions = self.policy.partition_count(db_node_count, self.worker_count)
        assignment = [
            min(self.policy.partition_for_worker(p), self.worker_count - 1)
            for p in range(npartitions)
        ]
        with self._lock:
            streams = dict(self._streams)

        # Group streams by receiving worker, in deterministic (node, instance)
        # order, and concatenate their staged payloads.
        staged: dict[int, list[bytes]] = {}
        for (worker_index, db_node, instance) in sorted(streams):
            stream = streams[(worker_index, db_node, instance)]
            staged.setdefault(worker_index, []).append(
                self.session.workers[worker_index].close_stream(stream.stream_id))
        payload_by_worker = {worker: b"".join(chunks)
                             for worker, chunks in staged.items()}

        if self.as_frame:
            result = DFrame(self.session, npartitions, worker_assignment=assignment)
        else:
            result = DArray(self.session, npartitions=npartitions,
                            worker_assignment=assignment)

        # Each worker's staged bytes (possibly from several sender streams)
        # become exactly one partition under both built-in policies.
        for partition in range(npartitions):
            worker_index = assignment[partition]
            payload = payload_by_worker.pop(worker_index, b"")
            if self.as_frame:
                columns = frames_to_columns(payload, self.columns)
                if len(next(iter(columns.values()), np.empty(0))) == 0:
                    columns = {
                        name: np.empty(0, dtype=self.sql_types[name].numpy_dtype)
                        for name in self.columns
                    }
                result.fill_partition(partition, columns)
            else:
                matrix = frames_to_matrix(payload, self.columns)
                result.fill_partition(partition, matrix)
        if payload_by_worker:
            raise TransferError(
                f"streams arrived at unexpected workers: {sorted(payload_by_worker)}"
            )
        return result

    def unregister(self) -> None:
        with _TARGETS_LOCK:
            _TARGETS.pop(self.token, None)

    def __enter__(self) -> "TransferTarget":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unregister()


class ExportToDistributedR(TransformFunction):
    """The database-side UDF that streams local segment data to workers.

    ``USING PARAMETERS``:

    * ``target`` — handle of the registered :class:`TransferTarget`.
    * ``chunk_rows`` — the partition-size hint: how many rows to buffer
      before pushing a frame ("Partition sizes are used as hints by Vertica
      to determine how much data should be buffered before transferring to R
      instances", §3.1).  The default is one stored row group.
    * ``policy`` — informational; the authoritative policy object lives on
      the target.
    """

    name = "ExportToDistributedR"
    # Each invocation streams frames into live R worker sockets; replaying
    # a cached summary row would silently skip the transfer itself.
    cacheable = False

    def signature(self) -> UdtfSignature:
        # At least one exported column; 'target' must carry a registered
        # transfer-target token.  Columns of any SQL type can be exported.
        return UdtfSignature(
            min_args=1,
            required_parameters=frozenset({"target"}),
            known_parameters=frozenset({"target", "chunk_rows", "policy"}),
        )

    def output_schema(self, params: Mapping[str, object]) -> list[ColumnSchema]:
        return [
            ColumnSchema("node", SqlType.INTEGER),
            ColumnSchema("instance", SqlType.INTEGER),
            ColumnSchema("rows_sent", SqlType.INTEGER),
            ColumnSchema("bytes_sent", SqlType.INTEGER),
        ]

    @staticmethod
    def _setup(params: Mapping[str, Any]) -> tuple["TransferTarget", int]:
        token = params.get("target")
        if not token:
            raise TransferError("ExportToDistributedR requires a 'target' parameter")
        target = lookup_target(str(token))
        chunk_rows = int(params.get("chunk_rows", DEFAULT_ROWGROUP_ROWS))
        if chunk_rows < 1:
            raise TransferError(f"chunk_rows must be positive, got {chunk_rows}")
        return target, chunk_rows

    def process_stream(self, ctx: UdtfContext, batches, params: Mapping[str, Any]
                       ) -> dict[str, np.ndarray]:
        """Streaming export: push a wire frame as each ``chunk_rows`` window
        of the instance's batch stream fills, instead of materializing the
        whole partition first.  Frame boundaries fall every ``chunk_rows``
        rows of the instance's slice, so the wire bytes do not depend on
        how the scan was batched; peak buffering is one ``chunk_rows``
        window, not the instance's slice.
        """
        target, chunk_rows = self._setup(params)
        sender = _FrameSender(ctx, target)
        window: list[dict[str, np.ndarray]] = []
        buffered = 0
        total_rows = 0
        for batch in batches:
            columns = _target_columns(target, batch)
            rows = len(next(iter(columns.values()))) if columns else 0
            total_rows += rows
            start = 0
            while start < rows:
                take = min(rows - start, chunk_rows - buffered)
                window.append(columns if take == rows
                              else slice_batch(columns, start, start + take))
                buffered += take
                start += take
                if buffered == chunk_rows:
                    sender.emit(window, buffered)
                    window, buffered = [], 0
        if buffered:
            sender.emit(window, buffered)
        return sender.summary(total_rows)


def _target_columns(target: TransferTarget,
                    args: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Validate and order one batch's columns against the target's schema
    (a row-group batch stays one)."""
    columns = {name: np.atleast_1d(np.asarray(arr)) for name, arr in args.items()}
    missing = [c for c in target.columns if c not in columns]
    if missing:
        raise TransferError(
            f"UDF received columns {sorted(columns)}, target expects {target.columns}"
        )
    ordered = {name: columns[name] for name in target.columns}
    if isinstance(args, RowGroupBatch):
        return RowGroupBatch(ordered, args.rowgroup, args.offset)
    return ordered


def _whole_rowgroup(window: list[dict[str, np.ndarray]]) -> "RowGroup | None":
    """The stored row group ``window``'s pieces are, in order and complete
    (offset 0 to its row count), or ``None``."""
    rowgroup = getattr(window[0], "rowgroup", None)
    covered = 0
    for piece in window:
        if (not isinstance(piece, RowGroupBatch) or piece.rowgroup is not rowgroup
                or piece.offset != covered):
            return None
        covered += len(next(iter(piece.values())))
    return rowgroup if covered == rowgroup.row_count else None


class _FrameSender:
    """Builds one instance's wire frames and routes them to workers,
    keeping the instance's frame counter.

    A window that is one whole stored row group goes out as the row group's
    stored column blocks; any other window is compressed afresh.  The
    table's codec is the cluster's, so both paths give the same bytes for
    the same rows: forwarding only skips work.

    Frames are numbered per destination stream; on a retried transfer the
    sender consults the receiver's ack cursor and resends only from the
    first unacked frame, building no frame below it, so the staged bytes
    come out identical to a failure-free run (resend-from-last-acked).
    Individual sends that fail with a transport-level
    :class:`TransferError` (torn frame, send timeout) are retried in place
    with bounded exponential backoff.
    """

    def __init__(self, ctx: UdtfContext, target: TransferTarget) -> None:
        self.ctx = ctx
        self.target = target
        self.chunk_index = 0
        self.total_bytes = 0
        # Per destination worker: the next frame number on this instance's
        # stream to that worker (streams are keyed by worker+node+instance).
        self._stream_seq: dict[int, int] = {}
        metrics = ctx.cluster.metrics
        self._bytes_sent = metrics.counter("vft_bytes_sent")
        self._frame_bytes = metrics.histogram("vft_frame_bytes")
        self._blocks_forwarded = metrics.counter("vft_blocks_forwarded")
        self._blocks_reencoded = metrics.counter("vft_blocks_reencoded")

    def emit(self, window: list[dict[str, np.ndarray]], rows: int) -> None:
        """Send the frame of ``window`` (pieces of ``rows`` rows in all)."""
        ctx, target = self.ctx, self.target
        worker = target.policy.target_worker(
            ctx.node_index, ctx.instance_index, self.chunk_index, target.worker_count
        )
        self.chunk_index += 1
        seq = self._stream_seq.get(worker, 0)
        self._stream_seq[worker] = seq + 1
        if seq < target.acked_frames(worker, ctx.node_index, ctx.instance_index):
            # This frame survived an earlier attempt; skip the wire entirely.
            ctx.cluster.metrics.counter("vft_frames_deduped").add()
            return
        frame = self._frame(window)
        self._send_with_retry(worker, seq, frame, rows)
        self._bytes_sent.add(len(frame))
        self._frame_bytes.observe(len(frame))
        # Ambient span here is this instance's udtf.instance span.
        add_to_current(vft_frames=1, vft_bytes=len(frame), vft_rows=rows)
        self.total_bytes += len(frame)

    def _frame(self, window: list[dict[str, np.ndarray]]) -> bytes:
        target = self.target
        blocks = len(target.columns)
        rowgroup = _whole_rowgroup(window)
        if rowgroup is not None:
            self._blocks_forwarded.add(blocks)
            add_to_current(vft_blocks_forwarded=blocks)
            return frame_of_blocks({name: rowgroup.block(name)
                                    for name in target.columns})
        self._blocks_reencoded.add(blocks)
        add_to_current(vft_blocks_reencoded=blocks)
        return encode_frame(concat_batches(window), target.sql_types,
                            codec=self.ctx.cluster.codec)

    def _send_with_retry(self, worker: int, seq: int, frame: bytes,
                         rows: int) -> None:
        """One frame onto the wire, retrying transport failures in place.

        Only :class:`TransferError` (torn frame rejected by the receiver,
        send exceeding the policy's timeout) is retried here — a node crash
        surfaces as :class:`~repro.faults.plan.InjectedFault` and must
        propagate so the whole-transfer retry in ``db2darray`` can re-read
        the segment from a buddy replica.
        """
        ctx, target = self.ctx, self.target
        policy = target.retry
        attempt = 0
        while True:
            wire = frame
            started = time.perf_counter()
            try:
                faults = ctx.cluster.faults
                if faults is not None:
                    perturbed = faults.perturb(
                        "vft.send_chunk", data=wire, node=ctx.node_index,
                        instance=ctx.instance_index, worker=worker, seq=seq,
                        attempt=attempt,
                    )
                    wire = perturbed if perturbed is not None else wire
                target.send_chunk(worker, ctx.node_index, ctx.instance_index,
                                  wire, rows, seq=seq)
                elapsed = time.perf_counter() - started
                if (policy.send_timeout is not None
                        and elapsed > policy.send_timeout):
                    raise TransferError(
                        f"send of frame {seq} to worker {worker} took "
                        f"{elapsed:.3f}s (timeout {policy.send_timeout}s)"
                    )
                return
            except TransferError as exc:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                ctx.cluster.metrics.counter("transfer_retries").add()
                with ctx.cluster.tracer.span(
                    "fault.recovered", mechanism="frame_resend", seq=seq,
                    worker=worker, attempt=attempt, error=str(exc)[:120],
                ):
                    pass
                policy.backoff(attempt)

    def summary(self, rows: int) -> dict[str, np.ndarray]:
        ctx = self.ctx
        ctx.cluster.metrics.counter("vft_rows_sent").add(rows)
        return {
            "node": np.asarray([ctx.node_index], dtype=np.int64),
            "instance": np.asarray([ctx.instance_index], dtype=np.int64),
            "rows_sent": np.asarray([rows], dtype=np.int64),
            "bytes_sent": np.asarray([self.total_bytes], dtype=np.int64),
        }
