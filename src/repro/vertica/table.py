"""Tables and their per-node segments.

A :class:`Table` is a schema plus a segmentation scheme plus one
:class:`Segment` per database node.  Inserted batches are routed to segments
row-by-row by the segmentation scheme; each segment keeps one ordered list of
ROS units — row groups whose rows carry their commit epochs as runs.  Their
column blocks sit in memory by default; a cluster started with ``data_dir``
writes them to on-disk segment files and reads them back on use — the same
row groups, scanned, moved out and merged out by the same code.

Every row also carries a hidden global row id (``_rowid``) assigned at insert
time.  Global row ids are what the ODBC path's ordered range fetches filter
on — the operation that destroys locality, as §3 of the paper describes.

Storage is MVCC'd per :mod:`repro.vertica.txn`: every row carries the commit
epoch that created it (in its ROS unit's epoch runs, or as its WOS batch's
epoch), each segment carries a delete vector, and scans resolve through a
:class:`~repro.vertica.txn.epochs.Snapshot` — rows whose insert epoch is
in the snapshot's future, or whose delete epoch is at-or-before it, never
leave the segment.  ``snapshot=None`` at this layer means "no transaction
view": all committed *and* in-flight storage, all deletes applied — the
pre-MVCC behaviour, kept for standalone :class:`Segment`/:class:`Table`
use outside a cluster.  Cluster scan paths always resolve a real snapshot.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import CatalogError, StorageError
from repro.storage.encoding import ColumnSchema, SqlType, coerce_to_dtype
from repro.storage.files import SegmentFile, SegmentFileWriter
from repro.storage.rowgroup import RowGroup
from repro.vertica.pipeline import RowGroupBatch
from repro.vertica.segmentation import SegmentationScheme
from repro.vertica.txn.delete_vector import DeleteVector, FrozenDeleteIndex
from repro.vertica.txn.wos import WosBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry
    from repro.vertica.txn.epochs import EpochClock, Snapshot

__all__ = ["Table", "Segment", "ROWID_COLUMN"]

ROWID_COLUMN = "_rowid"
DEFAULT_ROWGROUP_ROWS = 65_536

# Process-wide unique table ids.  A DROP TABLE / CREATE TABLE cycle under
# the same name produces a table with a fresh uid, so cache keys built from
# invalidation tokens can never alias the old table's contents.
_TABLE_UIDS = itertools.count(1)

# The epoch a ``snapshot=None`` scan reads at: beyond every stamp, so it
# sees all storage and applies every delete — exactly the pre-MVCC view.
UNBOUNDED_EPOCH = 2**62

# The lower bound of the full-history window ``(FULL_HISTORY, snapshot]``
# a plain scan reads: below epoch 0, the stamp of a standalone table's
# rows, which is visible to every snapshot.
FULL_HISTORY = -1


def snapshot_epoch(snapshot: "Snapshot | None") -> int:
    return UNBOUNDED_EPOCH if snapshot is None else snapshot.epoch


class RosUnit:
    """One ROS unit: a row group plus its rows' commit epochs as runs.

    ``runs`` is the run-length form of the unit's epoch column —
    ``(epoch, rows)`` pairs in scan order, summing to the row group's row
    count.  A bulk load, a mergeout output and a single-epoch moveout are
    one run each; a moveout of trickle INSERTs keeps one run per commit
    epoch it flushed.  Immutable once built.
    """

    __slots__ = ("runs", "rowgroup", "oldest", "newest")

    def __init__(self, runs: tuple[tuple[int, int], ...],
                 rowgroup: RowGroup) -> None:
        self.runs = runs
        self.rowgroup = rowgroup
        self.oldest = min(epoch for epoch, _ in runs)
        self.newest = max(epoch for epoch, _ in runs)

    def _inside(self, since_epoch: int, cap: int) -> bool:
        """Whether every run lies in the window ``(since_epoch, cap]``."""
        return since_epoch < self.oldest and self.newest <= cap

    def overlaps(self, since_epoch: int, cap: int) -> bool:
        """Whether some run lies in the window ``(since_epoch, cap]``."""
        return self._inside(since_epoch, cap) or any(
            since_epoch < epoch <= cap for epoch, _ in self.runs)

    def window_mask(self, since_epoch: int, cap: int) -> np.ndarray | None:
        """Rows in the window ``(since_epoch, cap]``; ``None`` when that is
        every row, so only units straddling the window build a mask."""
        if self._inside(since_epoch, cap):
            return None
        epochs = np.fromiter((epoch for epoch, _ in self.runs), dtype=np.int64)
        rows = np.fromiter((rows for _, rows in self.runs), dtype=np.int64)
        return np.repeat((epochs > since_epoch) & (epochs <= cap), rows)

    def rows_in(self, since_epoch: int, cap: int) -> int:
        """Row count of the window ``(since_epoch, cap]``."""
        if self._inside(since_epoch, cap):
            return self.rowgroup.row_count
        return sum(rows for epoch, rows in self.runs
                   if since_epoch < epoch <= cap)


class SegmentScanSet:
    """A frozen, consistent set of storage to scan: taken atomically under
    the segment's mutation lock, immune to concurrent appends, moveout
    swaps, and delete-vector updates for the lifetime of the scan."""

    __slots__ = ("units", "wos", "deletes")

    def __init__(self, units: list[RosUnit], wos: list[WosBatch],
                 deletes: FrozenDeleteIndex) -> None:
        self.units = units
        self.wos = wos
        self.deletes = deletes


class Segment:
    """One node's slice of a table: ROS units plus a WOS.

    Read-optimized storage is one ordered list of :class:`RosUnit`
    (``_ros``); whether a unit's column blocks sit in memory or in a
    segment file is the row group's business (:meth:`_persist`), not this
    class's.  The list and the write-optimized store (``_wos``) are guarded
    by ``_mutation_lock``; scans take a :class:`SegmentScanSet` under the
    lock and then decode without it.  Scan order is always ROS units
    followed by the WOS — the Tuple Mover's moveout flushes a *prefix* of
    the WOS to the *end* of the ROS, which preserves that order exactly.
    """

    def __init__(
        self,
        table_name: str,
        node_index: int,
        schema: list[ColumnSchema],
        data_dir: Path | None = None,
        codec: str = "zlib",
    ) -> None:
        self.table_name = table_name
        self.node_index = node_index
        self.schema = list(schema)
        self.codec = codec
        self._mutation_lock = threading.RLock()
        self._ros: list[RosUnit] = []
        self._wos: list[WosBatch] = []
        self.delete_vector = DeleteVector()
        self._data_dir = data_dir
        self._file_counter = 0

    @property
    def row_count(self) -> int:
        """Physical rows stored (ROS + WOS), ignoring delete vectors."""
        with self._mutation_lock:
            return (sum(unit.rowgroup.row_count for unit in self._ros)
                    + sum(batch.rows for batch in self._wos))

    @property
    def wos_rows(self) -> int:
        with self._mutation_lock:
            return sum(batch.rows for batch in self._wos)

    @property
    def rowgroup_count(self) -> int:
        """Scannable storage units: ROS units plus the row groups the WOS
        will become, ``ceil(wos_rows / DEFAULT_ROWGROUP_ROWS)``.

        The WOS scans as one batch cut at the same boundaries moveout uses,
        so this is also the number of batches a full scan yields.
        PARTITION BEST sizes its fan-out from it, so a table with live WOS
        trickle data plans the same parallelism as the equivalent table
        whose batches were already moved out.
        """
        with self._mutation_lock:
            wos_rows = sum(batch.rows for batch in self._wos)
            return len(self._ros) + -(-wos_rows // DEFAULT_ROWGROUP_ROWS)

    @property
    def compressed_size(self) -> int:
        """Approximate on-disk footprint of this segment in bytes."""
        with self._mutation_lock:
            return sum(unit.rowgroup.compressed_size for unit in self._ros)

    def block_layouts(self) -> Counter:
        """ROS column blocks per layout (the codec field each records)."""
        with self._mutation_lock:
            rowgroups = [unit.rowgroup for unit in self._ros]
        return Counter(block.codec for rg in rowgroups
                       for block in rg.columns.values())

    def visible_row_count(self, snapshot: "Snapshot | None" = None) -> int:
        """Rows a scan at ``snapshot`` yields from this segment.

        Inserted-and-visible (counted from the epoch runs) minus
        deleted-and-visible; the subtraction is exact because a delete
        epoch is never smaller than its row's insert epoch (only visible
        rows can be deleted).
        """
        cap = snapshot_epoch(snapshot)
        scan = self.capture(snapshot)
        return (sum(unit.rows_in(FULL_HISTORY, cap) for unit in scan.units)
                + sum(batch.rows for batch in scan.wos)
                - scan.deletes.count_at(cap))

    # -- writes ------------------------------------------------------------

    def append(self, arrays: dict[str, np.ndarray], epoch: int = 0) -> None:
        """Append one batch (already routed to this segment) as row groups.

        The batch is encoded (and, on a ``data_dir`` deployment, written)
        outside the mutation lock and spliced in under it, each row group
        one run of ``epoch``.
        """
        if self._validated_rows(arrays) == 0:
            return
        units = [RosUnit(((epoch, rg.row_count),), rg)
                 for rg in self._build_rowgroups(arrays)]
        with self._mutation_lock:
            self._ros.extend(units)

    def append_wos(self, arrays: dict[str, np.ndarray], epoch: int) -> int:
        """Land one trickle-insert batch in the WOS, stamped with ``epoch``."""
        rows = self._validated_rows(arrays)
        if rows == 0:
            return 0
        batch = WosBatch(epoch, {n: np.asarray(a) for n, a in arrays.items()})
        with self._mutation_lock:
            self._wos.append(batch)
        return rows

    def rollback_epoch(self, epoch: int) -> None:
        """Remove all storage stamped ``epoch`` (a failed insert's debris).

        Only ever called for a pending epoch — no snapshot can have seen
        the rows, so dropping them (and whatever backs them) is invisible
        to every reader.  A pending epoch's ROS rows are always whole
        single-run units (a bulk load): moveout only takes the committed
        prefix of the WOS, so a multi-run unit never holds a pending epoch.
        """
        if epoch <= 0:
            return
        with self._mutation_lock:
            doomed = [unit for unit in self._ros if unit.newest == epoch]
            if doomed:
                self._ros = [unit for unit in self._ros
                             if unit.newest != epoch]
            self._wos = [b for b in self._wos if b.epoch != epoch]
        for unit in doomed:
            unit.rowgroup.discard()

    def _validated_rows(self, arrays: dict[str, np.ndarray]) -> int:
        if not arrays:
            return 0
        lengths = {len(np.asarray(a)) for a in arrays.values()}
        if len(lengths) != 1:
            raise StorageError("ragged arrays appended to segment")
        (rows,) = lengths
        return rows

    def _build_rowgroups(self, arrays: dict[str, np.ndarray]) -> list[RowGroup]:
        """Encode equal-length arrays (an insert batch, a WOS prefix, a
        mergeout run) into row groups with their final backing."""
        rows = len(next(iter(arrays.values())))
        rowgroups = []
        for start in range(0, rows, DEFAULT_ROWGROUP_ROWS):
            stop = min(start + DEFAULT_ROWGROUP_ROWS, rows)
            chunk = {name: np.asarray(arr)[start:stop]
                     for name, arr in arrays.items()}
            rowgroups.append(
                RowGroup.from_arrays(self.schema, chunk, codec=self.codec)
            )
        return self._persist(rowgroups)

    def _persist(self, rowgroups: list[RowGroup]) -> list[RowGroup]:
        """Give freshly encoded row groups their final backing.

        The only place that knows the deployment's storage mode: without a
        ``data_dir`` the row groups stay as they are; with one they are
        written to a new segment file and handed back as row groups whose
        column blocks load from that file on demand.  Either way the
        caller splices ordinary :class:`RowGroup` units.
        """
        if self._data_dir is None or not rowgroups:
            return rowgroups
        with self._mutation_lock:
            counter = self._file_counter
            self._file_counter += 1
        self._data_dir.mkdir(parents=True, exist_ok=True)
        path = self._data_dir / f"{self.table_name}.seg{counter:06d}.bin"
        with SegmentFileWriter(path, self.schema) as writer:
            for rowgroup in rowgroups:
                writer.append(rowgroup)
        return list(SegmentFile(path).iter_rowgroups())

    # -- reads -------------------------------------------------------------

    def capture(self, snapshot: "Snapshot | None" = None,
                since_epoch: int = FULL_HISTORY) -> SegmentScanSet:
        """Atomically freeze the storage a scan at ``snapshot`` must read.

        ``since_epoch`` narrows the capture to storage stamped **after** that
        epoch — the delta window ``(since_epoch, snapshot]`` incremental model
        refresh folds over.  The default :data:`FULL_HISTORY` precedes every
        stamp, epoch 0 included, so plain scans read everything.  A ROS unit
        is kept when some epoch run falls in the window; :meth:`iter_batches`
        masks the rest of its rows out.
        """
        cap = snapshot_epoch(snapshot)
        with self._mutation_lock:
            units = [unit for unit in self._ros
                     if unit.overlaps(since_epoch, cap)]
            wos = [b for b in self._wos if since_epoch < b.epoch <= cap]
            deletes = self.delete_vector.frozen()
        return SegmentScanSet(units, wos, deletes)

    def iter_batches(self, columns: list[str],
                     ranges: dict | None = None,
                     prune_counter=None,
                     snapshot: "Snapshot | None" = None,
                     since_epoch: int = FULL_HISTORY,
                     ) -> Iterator[dict[str, np.ndarray]]:
        """Stream the segment one decoded ROS unit / WOS chunk at a time.

        This is the source of the streaming execution pipeline: each yielded
        dict holds the requested columns of exactly one surviving ROS unit,
        so peak memory is O(row group), not O(segment).  ``ranges`` maps
        column names to :class:`~repro.vertica.pruning.ColumnRange`
        envelopes; units whose zone maps exclude any constrained column
        are skipped without decompressing a single block (``prune_counter``
        is called with the number of skipped units).

        ``snapshot`` fixes the transactional view: rows whose epoch run lies
        outside ``(since_epoch, snapshot]`` are masked out (only units that
        straddle the window build a mask), the WOS batches visible at it
        follow the ROS as **one** batch cut at the row group boundaries
        moveout would use — so a scan yields the same batches before and
        after a moveout — and rows the frozen delete index marks deleted
        at-or-before the snapshot are filtered out.

        A batch that keeps every row of its ROS unit is a
        :class:`~repro.vertica.pipeline.RowGroupBatch` naming the unit's
        row group; a masked unit or a WOS batch is a plain ``dict``.
        """
        scan = self.capture(snapshot, since_epoch=since_epoch)
        cap = snapshot_epoch(snapshot)
        constrained = self._constrained_columns(ranges)
        filtering = len(scan.deletes) > 0
        read_names = list(columns)
        if filtering and ROWID_COLUMN not in read_names:
            read_names.append(ROWID_COLUMN)

        def visible(decoded: dict[str, np.ndarray], keep: np.ndarray | None,
                    rowgroup: RowGroup | None = None
                    ) -> dict[str, np.ndarray] | None:
            if filtering:
                alive = scan.deletes.keep_mask(decoded[ROWID_COLUMN], cap)
                keep = alive if keep is None else keep & alive
            if keep is not None and not keep.all():
                if not keep.any():
                    return None
                return {name: decoded[name][keep] for name in columns}
            whole = {name: decoded[name] for name in columns}
            # Every row of a stored row group survived: say which one, so a
            # consumer can forward its stored blocks (VFT).
            return whole if rowgroup is None else RowGroupBatch(whole, rowgroup)

        for unit in scan.units:
            rowgroup = unit.rowgroup
            if constrained and not rowgroup.might_match(ranges, constrained):
                if prune_counter is not None:
                    prune_counter(1)
                continue
            batch = visible(rowgroup.read(read_names),
                            unit.window_mask(since_epoch, cap), rowgroup)
            if batch is not None:
                yield batch
        if not scan.wos:
            return
        wos = _concat([b.read(read_names) for b in scan.wos])
        rows = sum(b.rows for b in scan.wos)
        for start in range(0, rows, DEFAULT_ROWGROUP_ROWS):
            stop = start + DEFAULT_ROWGROUP_ROWS
            batch = visible({name: arr[start:stop] for name, arr in wos.items()},
                            None)
            if batch is not None:
                yield batch

    def typed_empty(self, columns: list[str]) -> dict[str, np.ndarray]:
        """Zero-row arrays carrying the schema's declared dtypes."""
        return {
            name: np.empty(0, dtype=self._schema_column(name).numpy_dtype)
            for name in columns
        }

    # -- Tuple Mover entry points ------------------------------------------

    def moveout(self, committed_epoch: int) -> int:
        """Flush the committed prefix of the WOS into ROS storage.

        Only a *prefix* with epochs ≤ ``committed_epoch`` moves (pending
        epochs and everything after them stay).  It is encoded in one go,
        at most ``DEFAULT_ROWGROUP_ROWS`` rows per row group — the
        boundaries the WOS is already scanned in — and lands at the end of
        the ROS, each unit keeping its rows' commit epochs as runs.  So a
        scan at any epoch sees the same rows in the same order before and
        after the flush, and a scan that saw the whole prefix sees the same
        batches.

        Returns the number of rows flushed.
        """
        with self._mutation_lock:
            prefix: list[WosBatch] = []
            for batch in self._wos:
                if batch.epoch > committed_epoch:
                    break
                prefix.append(batch)
        if not prefix:
            return 0
        rowgroups = self._build_rowgroups(_concat([b.arrays for b in prefix]))
        built = [RosUnit(runs, rg) for runs, rg in zip(
            _cut_runs([(b.epoch, b.rows) for b in prefix],
                      [rg.row_count for rg in rowgroups]), rowgroups)]
        with self._mutation_lock:
            if _same_units(self._wos[:len(prefix)], prefix):
                del self._wos[:len(prefix)]
                self._ros.extend(built)
                return sum(batch.rows for batch in prefix)
        # Lost a race with another mover pass: nothing was published, so
        # nobody can be reading what was just built.  Retry later.
        for rowgroup in rowgroups:
            rowgroup.discard()
        return 0

    def has_mergeout_work(self, ahm: int, small_rows: int,
                          min_run: int = 2) -> bool:
        """Cheap pre-check so the background mover only opens a
        ``txn.mergeout`` span (and decodes row ids) when a pass could
        plausibly do something.  Conservative: may return True for a pass
        that ends up merging nothing."""
        if self.delete_vector.frozen().count_at(ahm):
            return True
        with self._mutation_lock:
            units = list(self._ros)
        return bool(self._mergeout_runs(units, ahm, small_rows, min_run))

    def mergeout(self, ahm: int, small_rows: int,
                 min_run: int = 2) -> tuple[int, int]:
        """Compact small adjacent row groups and purge ancient deletes.

        Only units whose newest epoch run is at-or-before the AHM are
        touched: merged row groups are one run at the max epoch of their
        inputs (indistinguishable to every snapshot ≥ AHM), and rows whose delete epoch is ≤ AHM — invisible
        to every snapshot a query may still take — are dropped from the
        rewrite and their delete-vector entries purged in the same critical
        section.  A scan at any valid epoch is bit-identical before and
        after.

        Returns ``(bytes_rewritten, rows_purged)``.
        """
        deletes = self.delete_vector.frozen()
        bytes_rewritten = 0
        rows_purged = 0
        while True:
            result = self._mergeout_once(ahm, small_rows, min_run, deletes)
            if result is None:
                return bytes_rewritten, rows_purged
            bytes_rewritten += result[0]
            rows_purged += result[1]

    @staticmethod
    def _mergeout_runs(units: list[RosUnit], ahm: int,
                       small_rows: int, min_run: int,
                       ) -> list[tuple[int, list[RosUnit]]]:
        """Maximal runs of adjacent units behind the AHM worth compacting:
        at least two units, ≥ ``min_run`` of them under ``small_rows``.
        Each run comes with its start index in ``units``."""
        runs = []
        start = 0
        for stop in range(len(units) + 1):
            if stop < len(units) and units[stop].newest <= ahm:
                continue
            run = units[start:stop]
            small = sum(1 for unit in run
                        if unit.rowgroup.row_count < small_rows)
            if len(run) >= 2 and small >= min_run:
                runs.append((start, run))
            start = stop + 1
        return runs

    @staticmethod
    def _purge_only_runs(units: list[RosUnit], ahm: int,
                         deletes: FrozenDeleteIndex,
                         ) -> list[tuple[int, list[RosUnit]]]:
        """Single units (any size) that hold rows purgeable behind the AHM."""
        runs = []
        for i, unit in enumerate(units):
            if unit.newest > ahm:
                continue
            rowids = unit.rowgroup.read([ROWID_COLUMN])[ROWID_COLUMN]
            if not deletes.keep_mask(rowids, ahm).all():
                runs.append((i, units[i:i + 1]))
        return runs

    def _mergeout_once(self, ahm: int, small_rows: int, min_run: int,
                       deletes: FrozenDeleteIndex) -> tuple[int, int] | None:
        """Rewrite the first run that can be spliced back in; ``None`` when
        no run is left.  Compaction runs come first; purge-only rewrites are
        considered once nothing is left to compact."""
        with self._mutation_lock:
            units = list(self._ros)
        candidates = self._mergeout_runs(units, ahm, small_rows, min_run)
        if not candidates and deletes.count_at(ahm):
            candidates = self._purge_only_runs(units, ahm, deletes)
        names = [c.name for c in self.schema]
        for start, run in candidates:
            arrays = _concat([unit.rowgroup.read(names) for unit in run])
            keep = deletes.keep_mask(arrays[ROWID_COLUMN], ahm)
            purged_rowids = arrays[ROWID_COLUMN][~keep]
            if len(purged_rowids):
                arrays = {name: arr[keep] for name, arr in arrays.items()}
            rowgroups = self._build_rowgroups(arrays)
            epoch = max(unit.newest for unit in run)
            stop = start + len(run)
            with self._mutation_lock:
                if _same_units(self._ros[start:stop], run):
                    # Superseded units leave the scan set but their backing
                    # is not discarded: a concurrent capture may still hold
                    # a reference mid-read.  File-backed space is reclaimed
                    # when the segment's directory goes away.
                    self._ros[start:stop] = [
                        RosUnit(((epoch, rg.row_count),), rg)
                        for rg in rowgroups]
                    self.delete_vector.purge(purged_rowids)
                    return (sum(rg.compressed_size for rg in rowgroups),
                            len(purged_rowids))
            # Storage moved under us; what was built was never published.
            for rowgroup in rowgroups:
                rowgroup.discard()
        return None

    # -- helpers -----------------------------------------------------------

    def _constrained_columns(self, ranges: dict | None) -> list[str]:
        """The subset of range constraints that name columns of this segment."""
        if not ranges:
            return []
        schema_names = {c.name for c in self.schema}
        return [name for name in ranges if name in schema_names]

    def _schema_column(self, name: str) -> ColumnSchema:
        for column in self.schema:
            if column.name == name:
                return column
        raise StorageError(f"segment schema has no column {name!r}")


def _same_units(current: list, expected: list) -> bool:
    """Whether a slice re-read under the lock still holds exactly the
    objects a mover pass planned against (``expected`` must be a slice of
    the list copy the pass took, never rebuilt units)."""
    return len(current) == len(expected) and all(
        a is b for a, b in zip(current, expected))


def _cut_runs(runs: list[tuple[int, int]],
              sizes: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """Split epoch runs (one per WOS batch, in order) at row group
    boundaries: one tuple of runs per entry of ``sizes``, the row counts of
    the row groups, which sum to the runs' rows."""
    pending = iter(runs)
    epoch, rows = 0, 0
    pieces = []
    for size in sizes:
        piece = []
        while size:
            if not rows:
                epoch, rows = next(pending)
            take = min(rows, size)
            piece.append((epoch, take))
            size -= take
            rows -= take
        pieces.append(tuple(piece))
    return pieces


def _concat(batches: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    if len(batches) == 1:
        return dict(batches[0])
    return {
        name: np.concatenate([batch[name] for batch in batches])
        for name in batches[0]
    }


class Table:
    """A segmented, columnar table."""

    def __init__(
        self,
        name: str,
        schema: list[ColumnSchema],
        segmentation: SegmentationScheme,
        node_count: int,
        data_dir: Path | None = None,
        codec: str = "zlib",
        k_safety: int = 0,
    ) -> None:
        if not schema:
            raise CatalogError(f"table {name!r} requires at least one column")
        names = [c.name for c in schema]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {name!r}: {names}")
        if ROWID_COLUMN in names:
            raise CatalogError(f"column name {ROWID_COLUMN!r} is reserved")
        self.name = name
        self.user_schema = list(schema)
        # The stored schema appends the hidden global rowid column.
        self.stored_schema = list(schema) + [
            ColumnSchema(ROWID_COLUMN, SqlType.INTEGER)
        ]
        self.segmentation = segmentation
        self.node_count = node_count
        self._lock = threading.Lock()
        self._next_rowid = 0
        self.uid = next(_TABLE_UIDS)
        # Invalidation state for epoch-keyed result caching: the commit
        # epoch of the latest mutation and a count of Tuple Mover purges
        # (purges rewrite storage without allocating an epoch).
        self._mutation_epoch = 0
        self._purge_count = 0
        # Bound by the owning cluster; a standalone Table has no epoch
        # clock and stamps everything with epoch 0 (always visible).
        self.epochs: "EpochClock | None" = None
        self.metrics: "MetricsRegistry | None" = None
        # Serializes DELETE/UPDATE statements against each other (write-
        # write conflict resolution is first-wins via the delete vector,
        # but interleaved collect/apply phases would double-apply SETs).
        self.write_lock = threading.Lock()
        if k_safety not in (0, 1):
            raise CatalogError(f"k_safety must be 0 or 1, got {k_safety}")
        if k_safety == 1 and node_count < 2:
            raise CatalogError("k_safety=1 requires at least 2 nodes")
        self.k_safety = k_safety
        self.segments = [
            Segment(
                name,
                node,
                self.stored_schema,
                data_dir=(data_dir / f"node{node:02d}" if data_dir else None),
                codec=codec,
            )
            for node in range(node_count)
        ]
        # Buddy projections (Vertica's k-safety): segment i's replica lives
        # on node (i + 1) % n, so any single node failure loses no data.
        self.buddy_segments: list[Segment] | None = None
        if k_safety == 1:
            self.buddy_segments = [
                Segment(
                    f"{name}_buddy",
                    (node + 1) % node_count,
                    self.stored_schema,
                    data_dir=(
                        data_dir / f"node{(node + 1) % node_count:02d}"
                        if data_dir else None
                    ),
                    codec=codec,
                )
                for node in range(node_count)
            ]

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.user_schema]

    @property
    def row_count(self) -> int:
        return sum(segment.row_count for segment in self.segments)

    @property
    def compressed_size(self) -> int:
        return sum(segment.compressed_size for segment in self.segments)

    def block_layouts(self) -> dict[str, int]:
        """Column blocks per layout over the segments ``compressed_size``
        counts, by layout name."""
        counts = sum((segment.block_layouts() for segment in self.segments),
                     Counter())
        return dict(sorted(counts.items()))

    def column(self, name: str) -> ColumnSchema:
        for column in self.user_schema:
            if column.name == name:
                return column
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.user_schema)

    def note_commit(self, epoch: int) -> None:
        """Record ``epoch`` as the latest mutation of this table.

        Mutators call this **before** ``EpochClock.commit`` makes the epoch
        visible, so any reader whose snapshot includes the new data observes
        the bumped invalidation token afterwards (the clock's internal lock
        orders the token write before the watermark advance).
        """
        with self._lock:
            if epoch > self._mutation_epoch:
                self._mutation_epoch = epoch

    def note_purge(self) -> None:
        """Record a Tuple Mover purge (storage rewritten with no epoch)."""
        with self._lock:
            self._purge_count += 1

    def invalidation_token(self) -> tuple[int, int, int]:
        """``(uid, last mutation epoch, purge count)`` — changes whenever a
        committed INSERT/DELETE/UPDATE or a mergeout purge could alter what
        a latest-snapshot scan of this table returns."""
        with self._lock:
            return (self.uid, self._mutation_epoch, self._purge_count)

    def resolve_snapshot(self, at_epoch: int | None = None) -> "Snapshot | None":
        """The snapshot a statement should read at (``None`` → latest
        committed).  Tables outside a cluster have no epoch clock and read
        the raw physical view."""
        if self.epochs is None:
            return None
        return self.epochs.snapshot(at_epoch)

    def all_segments(self) -> list[Segment]:
        if self.buddy_segments is None:
            return list(self.segments)
        return list(self.segments) + list(self.buddy_segments)

    def insert(self, arrays: dict[str, np.ndarray], direct: bool = True,
               epoch: int | None = None) -> int:
        """Insert a batch of rows given as per-column arrays.

        Returns the number of rows inserted.  Thread-safe; rows receive
        consecutive global row ids in insertion order, and the whole batch
        is stamped with **one** commit epoch — a concurrent scan (which
        reads at the committed watermark) sees either none of the batch or
        all of it, never a torn prefix.

        ``direct=True`` (bulk loads) encodes straight into ROS rowgroups;
        ``direct=False`` (trickle INSERTs) lands in the per-segment WOS for
        the Tuple Mover to flush later.  Passing ``epoch`` enrolls the
        insert in a caller-managed transaction (UPDATE's reinsert path)
        instead of allocating and committing its own.
        """
        missing = [c.name for c in self.user_schema if c.name not in arrays]
        if missing:
            raise CatalogError(f"insert into {self.name!r} missing columns {missing}")
        extra = [k for k in arrays if not self.has_column(k)]
        if extra:
            raise CatalogError(f"insert into {self.name!r} has unknown columns {extra}")
        coerced = {
            c.name: coerce_to_dtype(np.atleast_1d(np.asarray(arrays[c.name])), c.sql_type)
            for c in self.user_schema
        }
        lengths = {name: len(arr) for name, arr in coerced.items()}
        if len(set(lengths.values())) != 1:
            raise CatalogError(f"ragged insert into {self.name!r}: {lengths}")
        rows = next(iter(lengths.values()))
        if rows == 0:
            return 0
        with self._lock:
            start_rowid = self._next_rowid
            self._next_rowid += rows
        assignment = self.segmentation.assign(
            coerced, rows, start_rowid, self.node_count
        )
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (rows,):
            raise CatalogError("segmentation returned a malformed assignment")
        if ((assignment < 0) | (assignment >= self.node_count)).any():
            raise CatalogError("segmentation assigned a row to a nonexistent node")
        rowids = np.arange(start_rowid, start_rowid + rows, dtype=np.int64)
        own_epoch = epoch is None and self.epochs is not None
        if epoch is not None:
            commit_epoch = epoch
        elif self.epochs is not None:
            commit_epoch = self.epochs.begin()
        else:
            commit_epoch = 0
        try:
            for node in range(self.node_count):
                # One index array per node, gathered from every column: a
                # boolean mask would be scanned again for each column.
                rows_of = np.flatnonzero(assignment == node)
                if not rows_of.size:
                    continue
                batch = {name: arr[rows_of] for name, arr in coerced.items()}
                batch[ROWID_COLUMN] = rowids[rows_of]
                targets = [self.segments[node]]
                if self.buddy_segments is not None:
                    targets.append(self.buddy_segments[node])
                for segment in targets:
                    if direct:
                        segment.append(batch, epoch=commit_epoch)
                    else:
                        segment.append_wos(batch, epoch=commit_epoch)
        except BaseException:
            for segment in self.all_segments():
                segment.rollback_epoch(commit_epoch)
            if own_epoch:
                self.epochs.abort(commit_epoch)
            raise
        if own_epoch:
            self.note_commit(commit_epoch)
            self.epochs.commit(commit_epoch)
        if not direct and self.metrics is not None:
            self.metrics.gauge("wos_rows").add(rows)
        return rows

    def insert_rows(self, rows: list[list]) -> int:
        """Insert rows given positionally (INSERT ... VALUES path).

        Trickle inserts land in the WOS; the Tuple Mover flushes them to
        ROS rowgroups in bulk (moveout) instead of encoding a compressed
        rowgroup per statement.
        """
        if not rows:
            return 0
        width = len(self.user_schema)
        for row in rows:
            if len(row) != width:
                raise CatalogError(
                    f"row has {len(row)} values, table {self.name!r} has {width} columns"
                )
        arrays = {}
        for i, column in enumerate(self.user_schema):
            values = [row[i] for row in rows]
            if column.sql_type is SqlType.VARCHAR:
                arrays[column.name] = np.asarray(values, dtype=object)
            else:
                arrays[column.name] = np.asarray(values)
        return self.insert(arrays, direct=False)

    def segment_row_counts(self, snapshot: "Snapshot | None" = None) -> list[int]:
        """Visible rows per node segment — the distribution VFT's locality
        policy mirrors into Distributed R partitions.

        Resolves at the latest committed snapshot by default (when the
        table has an epoch clock), so a caller racing a concurrent insert
        sees whole committed batches, never a torn prefix.
        """
        if snapshot is None and self.epochs is not None:
            snapshot = self.epochs.snapshot()
        return [segment.visible_row_count(snapshot) for segment in self.segments]

    def iter_node_batches(
        self, node: int, columns: list[str],
        ranges: dict | None = None, prune_counter=None,
        replica: bool = False, snapshot: "Snapshot | None" = None,
        since_epoch: int = FULL_HISTORY,
    ) -> Iterator[dict[str, np.ndarray]]:
        """Stream one node's segment (or its buddy replica) rowgroup-wise,
        in storage order.  ``columns`` may name :data:`ROWID_COLUMN`;
        ``since_epoch`` narrows the read to the delta window
        ``(since_epoch, snapshot]``."""
        if replica and self.buddy_segments is None:
            raise CatalogError(
                f"table {self.name!r} has no buddy projections (k_safety=0)"
            )
        segment = (self.buddy_segments if replica else self.segments)[node]
        return segment.iter_batches(columns, ranges=ranges,
                                    prune_counter=prune_counter,
                                    snapshot=snapshot, since_epoch=since_epoch)

    def buddy_host(self, node: int) -> int | None:
        """Node holding the buddy replica of ``node``'s segment (k-safety)."""
        if self.buddy_segments is None:
            return None
        return (node + 1) % self.node_count

    def insert_only_since(self, since_epoch: int,
                          snapshot: "Snapshot | None" = None) -> bool:
        """Whether the window ``(since_epoch, snapshot]`` holds inserts only
        and still lies ahead of the Ancient History Mark.

        The test a delta fold must pass before it trusts a read of just that
        window: a delete in it removes rows the fold already took in, and a
        window behind the AHM may have been re-stamped by mergeout.
        """
        if self.epochs is not None:
            if since_epoch < self.epochs.ancient_history_mark:
                return False
            if snapshot is None:
                snapshot = self.epochs.snapshot()
        cap = snapshot_epoch(snapshot)
        for segment in self.segments:
            deletes = segment.delete_vector.frozen()
            if deletes.count_at(cap) > deletes.count_at(since_epoch):
                return False
        return True
