"""Tables and their per-node segments.

A :class:`Table` is a schema plus a segmentation scheme plus one
:class:`Segment` per database node.  Inserted batches are routed to segments
row-by-row by the segmentation scheme; each segment stores row groups either
in memory (the default, for fast tests) or as real on-disk segment files
(used by benchmarks that charge file-system reads).

Every row also carries a hidden global row id (``_rowid``) assigned at insert
time.  Global row ids are what the ODBC path's ordered range fetches filter
on — the operation that destroys locality, as §3 of the paper describes.

Storage is MVCC'd per :mod:`repro.vertica.txn`: every rowgroup, segment
file, and WOS batch is stamped with the commit epoch that created it, each
segment carries a delete vector, and scans resolve through a
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
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import CatalogError, StorageError
from repro.storage.encoding import ColumnSchema, SqlType, coerce_to_dtype
from repro.storage.files import SegmentFile, SegmentFileWriter
from repro.storage.rowgroup import RowGroup
from repro.vertica.segmentation import SegmentationScheme
from repro.vertica.txn.delete_vector import DeleteVector, FrozenDeleteIndex
from repro.vertica.txn.wos import WosBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vertica.telemetry import Telemetry
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


def snapshot_epoch(snapshot: "Snapshot | None") -> int:
    return UNBOUNDED_EPOCH if snapshot is None else snapshot.epoch


class SegmentScanSet:
    """A frozen, consistent set of storage to scan: taken atomically under
    the segment's mutation lock, immune to concurrent appends, moveout
    swaps, and delete-vector updates for the lifetime of the scan."""

    __slots__ = ("rowgroups", "files", "wos", "deletes")

    def __init__(self, rowgroups: list[RowGroup], files: list[SegmentFile],
                 wos: list[WosBatch], deletes: FrozenDeleteIndex) -> None:
        self.rowgroups = rowgroups
        self.files = files
        self.wos = wos
        self.deletes = deletes


class Segment:
    """One node's slice of a table: epoch-stamped row groups plus a WOS.

    Read-optimized storage (``_memory_rowgroups`` / ``_files``) and the
    write-optimized store (``_wos``) are guarded by ``_mutation_lock``;
    scans take a :class:`SegmentScanSet` under the lock and then decode
    without it.  Scan order is always ROS rowgroups (memory, then files)
    followed by WOS batches — the Tuple Mover's moveout flushes a *prefix*
    of the WOS to the *end* of the ROS, which preserves that order exactly.
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
        self._memory_rowgroups: list[RowGroup] = []
        self._memory_epochs: list[int] = []
        self._files: list[SegmentFile] = []
        self._file_epochs: list[int] = []
        self._wos: list[WosBatch] = []
        self.delete_vector = DeleteVector()
        self._data_dir = data_dir
        self._file_counter = 0
        if data_dir is not None:
            data_dir.mkdir(parents=True, exist_ok=True)

    @property
    def on_disk(self) -> bool:
        return self._data_dir is not None

    @property
    def row_count(self) -> int:
        """Physical rows stored (ROS + WOS), ignoring delete vectors."""
        with self._mutation_lock:
            memory_rows = sum(rg.row_count for rg in self._memory_rowgroups)
            disk_rows = sum(f.row_count for f in self._files)
            wos = sum(batch.rows for batch in self._wos)
        return memory_rows + disk_rows + wos

    @property
    def wos_rows(self) -> int:
        with self._mutation_lock:
            return sum(batch.rows for batch in self._wos)

    @property
    def rowgroup_count(self) -> int:
        """Scannable storage units: ROS rowgroups plus unflushed WOS batches.

        PARTITION BEST sizes its fan-out from this, so a table with live
        WOS trickle data plans the same parallelism as the equivalent
        table whose batches were already moved out.
        """
        with self._mutation_lock:
            return (len(self._memory_rowgroups)
                    + sum(f.rowgroup_count for f in self._files)
                    + len(self._wos))

    @property
    def compressed_size(self) -> int:
        """Approximate on-disk footprint of this segment in bytes."""
        with self._mutation_lock:
            memory = sum(rg.compressed_size for rg in self._memory_rowgroups)
            disk = sum(f.file_size for f in self._files)
        return memory + disk

    def visible_row_count(self, snapshot: "Snapshot | None" = None) -> int:
        """Rows a scan at ``snapshot`` yields from this segment.

        Inserted-and-visible minus deleted-and-visible; the subtraction is
        exact because a delete epoch is never smaller than its row's insert
        epoch (only visible rows can be deleted).
        """
        cap = snapshot_epoch(snapshot)
        with self._mutation_lock:
            ros = sum(
                rg.row_count
                for rg, e in zip(self._memory_rowgroups, self._memory_epochs)
                if e <= cap
            )
            disk = sum(
                f.row_count
                for f, e in zip(self._files, self._file_epochs)
                if e <= cap
            )
            wos = sum(b.rows for b in self._wos if b.epoch <= cap)
            deletes = self.delete_vector.frozen()
        return ros + disk + wos - deletes.count_at(cap)

    # -- writes ------------------------------------------------------------

    def append(self, arrays: dict[str, np.ndarray], epoch: int = 0) -> None:
        """Append one batch (already routed to this segment) as row groups.

        The batch is encoded outside the mutation lock (compression is the
        expensive part) and spliced in under it, stamped with ``epoch``.
        """
        rows = self._validated_rows(arrays)
        if rows == 0:
            return
        rowgroups = self._encode_rowgroups(arrays, rows)
        if self.on_disk:
            segment_file = self._write_segment_file(rowgroups)
            with self._mutation_lock:
                self._files.append(segment_file)
                self._file_epochs.append(epoch)
        else:
            with self._mutation_lock:
                self._memory_rowgroups.extend(rowgroups)
                self._memory_epochs.extend([epoch] * len(rowgroups))

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
        the rows, so dropping them is invisible to every reader.
        """
        if epoch <= 0:
            return
        with self._mutation_lock:
            keep = [i for i, e in enumerate(self._memory_epochs) if e != epoch]
            if len(keep) != len(self._memory_epochs):
                self._memory_rowgroups = [self._memory_rowgroups[i] for i in keep]
                self._memory_epochs = [self._memory_epochs[i] for i in keep]
            keep_files = [i for i, e in enumerate(self._file_epochs) if e != epoch]
            if len(keep_files) != len(self._file_epochs):
                self._files = [self._files[i] for i in keep_files]
                self._file_epochs = [self._file_epochs[i] for i in keep_files]
            self._wos = [b for b in self._wos if b.epoch != epoch]

    def _validated_rows(self, arrays: dict[str, np.ndarray]) -> int:
        if not arrays:
            return 0
        lengths = {len(np.asarray(a)) for a in arrays.values()}
        if len(lengths) != 1:
            raise StorageError("ragged arrays appended to segment")
        (rows,) = lengths
        return rows

    def _encode_rowgroups(self, arrays: dict[str, np.ndarray],
                          rows: int) -> list[RowGroup]:
        rowgroups = []
        for start in range(0, rows, DEFAULT_ROWGROUP_ROWS):
            stop = min(start + DEFAULT_ROWGROUP_ROWS, rows)
            chunk = {name: np.asarray(arr)[start:stop]
                     for name, arr in arrays.items()}
            rowgroups.append(
                RowGroup.from_arrays(self.schema, chunk, codec=self.codec)
            )
        return rowgroups

    def _write_segment_file(self, rowgroups: list[RowGroup]) -> SegmentFile:
        with self._mutation_lock:
            counter = self._file_counter
            self._file_counter += 1
        path = self._data_dir / f"{self.table_name}.seg{counter:06d}.bin"
        with SegmentFileWriter(path, self.schema) as writer:
            for rowgroup in rowgroups:
                writer.append(rowgroup)
        return SegmentFile(path)

    # -- reads -------------------------------------------------------------

    def capture(self, snapshot: "Snapshot | None" = None,
                since_epoch: int = 0) -> SegmentScanSet:
        """Atomically freeze the storage a scan at ``snapshot`` must read.

        ``since_epoch`` narrows the capture to storage stamped **after** that
        epoch — the delta window ``(since_epoch, snapshot]`` incremental model
        refresh folds over.  The default 0 precedes every real stamp, so plain
        scans are unchanged.
        """
        cap = snapshot_epoch(snapshot)
        since = since_epoch
        with self._mutation_lock:
            rowgroups = [
                rg for rg, e in zip(self._memory_rowgroups, self._memory_epochs)
                if since < e <= cap
            ]
            files = [
                f for f, e in zip(self._files, self._file_epochs)
                if since < e <= cap
            ]
            wos = [b for b in self._wos if since < b.epoch <= cap]
            deletes = self.delete_vector.frozen()
        return SegmentScanSet(rowgroups, files, wos, deletes)

    def delete_epochs_between(self, since_epoch: int,
                              snapshot: "Snapshot | None" = None) -> bool:
        """Whether any delete committed in the window ``(since_epoch, snapshot]``.

        The incremental-refresh guard: a delete in the window can remove rows
        the model already folded in, which a pure insert-delta cannot express,
        so the refresher falls back to a full refit.
        """
        cap = snapshot_epoch(snapshot)
        frozen = self.delete_vector.frozen()
        if not len(frozen):
            return False
        return bool(((frozen.epochs > since_epoch)
                     & (frozen.epochs <= cap)).any())

    def iter_rowgroups(self, columns: list[str] | None = None,
                       snapshot: "Snapshot | None" = None) -> Iterator[RowGroup]:
        """Yield row groups; disk-backed groups are read from their files.

        Without a snapshot this is raw physical ROS access (WOS batches and
        delete vectors ignored) — storage-layer plumbing only.  With a
        snapshot, surviving rows are re-encoded into fresh row groups so
        the caller sees exactly the transactional view.
        """
        if snapshot is None:
            with self._mutation_lock:
                memory = list(self._memory_rowgroups)
                files = list(self._files)
            yield from memory
            for segment_file in files:
                yield from segment_file.iter_rowgroups(columns)
            return
        names = columns if columns is not None else [c.name for c in self.schema]
        schema = [self._schema_column(name) for name in names]
        for decoded in self.iter_batches(names, snapshot=snapshot):
            yield RowGroup.from_arrays(schema, decoded, codec=self.codec)

    def iter_batches(self, columns: list[str] | None = None,
                     ranges: dict | None = None,
                     prune_counter=None,
                     snapshot: "Snapshot | None" = None,
                     since_epoch: int = 0,
                     ) -> Iterator[dict[str, np.ndarray]]:
        """Stream the segment one decoded row group / WOS batch at a time.

        This is the source of the streaming execution pipeline: each yielded
        dict holds the requested columns of exactly one surviving row group,
        so peak memory is O(row group), not O(segment).  ``ranges`` maps
        column names to :class:`~repro.vertica.pruning.ColumnRange`
        envelopes; row groups whose zone maps exclude any constrained column
        are skipped without decompressing a single block (``prune_counter``
        is called with the number of skipped row groups).

        ``snapshot`` fixes the transactional view: storage stamped after the
        snapshot epoch is not read, WOS batches visible at it are unioned in
        after the ROS, and rows the frozen delete index marks deleted
        at-or-before it are filtered out.
        """
        names = columns if columns is not None else [c.name for c in self.schema]
        scan = self.capture(snapshot, since_epoch=since_epoch)
        cap = snapshot_epoch(snapshot)
        constrained = self._constrained_columns(ranges)
        filtering = len(scan.deletes) > 0
        read_names = list(names)
        if filtering and ROWID_COLUMN not in read_names:
            read_names.append(ROWID_COLUMN)

        def resolve(decoded: dict[str, np.ndarray]) -> dict[str, np.ndarray] | None:
            if not filtering:
                return decoded
            keep = scan.deletes.keep_mask(decoded[ROWID_COLUMN], cap)
            if keep.all():
                return {name: decoded[name] for name in names}
            if not keep.any():
                return None
            return {name: decoded[name][keep] for name in names}

        for rowgroup in scan.rowgroups:
            if constrained and not rowgroup.might_match(ranges, constrained):
                if prune_counter is not None:
                    prune_counter(1)
                continue
            batch = resolve(rowgroup.read(read_names))
            if batch is not None:
                yield batch
        for segment_file in scan.files:
            for index in range(segment_file.rowgroup_count):
                if constrained and not self._zone_maps_match(
                        lambda col, i=index, f=segment_file: f.read_block(i, col),
                        constrained, ranges):
                    if prune_counter is not None:
                        prune_counter(1)
                    continue
                batch = resolve(
                    segment_file.read_rowgroup(index, read_names).read(read_names)
                )
                if batch is not None:
                    yield batch
        for wos_batch in scan.wos:
            batch = resolve(wos_batch.read(read_names))
            if batch is not None:
                yield batch

    def typed_empty(self, columns: list[str] | None = None) -> dict[str, np.ndarray]:
        """Zero-row arrays carrying the schema's declared dtypes."""
        names = columns if columns is not None else [c.name for c in self.schema]
        return {
            name: np.empty(0, dtype=self._schema_column(name).numpy_dtype)
            for name in names
        }

    def read_columns(self, columns: list[str] | None = None,
                     ranges: dict | None = None,
                     prune_counter=None,
                     snapshot: "Snapshot | None" = None,
                     since_epoch: int = 0,
                     ) -> dict[str, np.ndarray]:
        """Materialize the segment (the given columns) as arrays.

        A collector over :meth:`iter_batches` (same pruning and snapshot
        resolution) for whole-segment consumers off the query hot paths:
        ``scan_all`` / ``scan_delta`` callers such as model refresh and
        sample builds.
        """
        names = columns if columns is not None else [c.name for c in self.schema]
        pieces: dict[str, list[np.ndarray]] = {name: [] for name in names}
        for decoded in self.iter_batches(names, ranges, prune_counter,
                                         snapshot=snapshot,
                                         since_epoch=since_epoch):
            for name in names:
                pieces[name].append(decoded[name])
        empty = None
        out = {}
        for name in names:
            if pieces[name]:
                out[name] = np.concatenate(pieces[name])
            else:
                empty = empty if empty is not None else self.typed_empty(names)
                out[name] = empty[name]
        return out

    # -- Tuple Mover entry points ------------------------------------------

    def moveout(self, committed_epoch: int, ahm: int = 0) -> int:
        """Flush the committed prefix of the WOS into ROS storage.

        Only a *prefix* with epochs ≤ ``committed_epoch`` moves (pending
        epochs and everything after them stay), and it lands at the end of
        the ROS — so a scan at any epoch sees the same rows in the same
        order before and after the flush.  Consecutive batches whose epochs
        are all ≤ ``ahm`` are compacted into shared row groups stamped with
        their max epoch (no valid snapshot can distinguish them); younger
        batches keep per-epoch row groups so ``AT EPOCH`` stays exact.

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
        groups = self._group_wos_batches(prefix, ahm)
        built: list[tuple[int, list[RowGroup]]] = []
        for epoch, batches in groups:
            arrays = _concat_stored(batches)
            rows = len(next(iter(arrays.values())))
            built.append((epoch, self._encode_rowgroups(arrays, rows)))
        if self.on_disk:
            files = [(epoch, self._write_segment_file(rowgroups))
                     for epoch, rowgroups in built]
        with self._mutation_lock:
            current = self._wos[:len(prefix)]
            if len(current) != len(prefix) or any(
                    a is not b for a, b in zip(current, prefix)):
                return 0  # lost a race with another mover pass; retry later
            del self._wos[:len(prefix)]
            if self.on_disk:
                for epoch, segment_file in files:
                    self._files.append(segment_file)
                    self._file_epochs.append(epoch)
            else:
                for epoch, rowgroups in built:
                    self._memory_rowgroups.extend(rowgroups)
                    self._memory_epochs.extend([epoch] * len(rowgroups))
        return sum(batch.rows for batch in prefix)

    @staticmethod
    def _group_wos_batches(prefix: list[WosBatch],
                           ahm: int) -> list[tuple[int, list[WosBatch]]]:
        groups: list[tuple[int, list[WosBatch]]] = []
        for batch in prefix:
            if groups:
                epoch, members = groups[-1]
                mergeable = (batch.epoch <= ahm and epoch <= ahm) \
                    or batch.epoch == epoch
                if mergeable:
                    groups[-1] = (max(epoch, batch.epoch), members + [batch])
                    continue
            groups.append((batch.epoch, [batch]))
        return groups

    def has_mergeout_work(self, ahm: int, small_rows: int,
                          min_run: int = 2) -> bool:
        """Cheap pre-check so the background mover only opens a
        ``txn.mergeout`` span (and walks the candidate machinery) when a
        pass could plausibly do something.  Conservative: may return True
        for a pass that ends up merging nothing."""
        frozen = self.delete_vector.frozen()
        if len(frozen) and (frozen.epochs <= ahm).any():
            return True
        with self._mutation_lock:
            for items, epochs, rows_of in (
                (self._memory_rowgroups, self._memory_epochs,
                 lambda rg: rg.row_count),
                (self._files, self._file_epochs, lambda f: f.row_count),
            ):
                run_small = 0
                for item, epoch in zip(items, epochs):
                    if epoch <= ahm:
                        if rows_of(item) < small_rows:
                            run_small += 1
                            if run_small >= min_run:
                                return True
                    else:
                        run_small = 0
        return False

    def mergeout(self, ahm: int, small_rows: int,
                 min_run: int = 2) -> tuple[int, int]:
        """Compact small adjacent row groups and purge ancient deletes.

        Only storage stamped at-or-before the AHM is touched: merged row
        groups take the max epoch of their run (indistinguishable to every
        snapshot ≥ AHM), and rows whose delete epoch is ≤ AHM — invisible
        to every snapshot a query may still take — are dropped from the
        rewrite and their delete-vector entries purged in the same critical
        section.  A scan at any valid epoch is bit-identical before and
        after.

        Returns ``(bytes_rewritten, rows_purged)``.
        """
        frozen = self.delete_vector.frozen()
        purgeable = frozen.rowids[frozen.epochs <= ahm]
        bytes_rewritten = 0
        rows_purged = 0
        done_memory, done_files = False, False
        while not (done_memory and done_files):
            if not done_memory:
                result = self._mergeout_memory_once(ahm, small_rows, min_run,
                                                    purgeable)
                if result is None:
                    done_memory = True
                else:
                    bytes_rewritten += result[0]
                    rows_purged += result[1]
            elif not done_files:
                result = self._mergeout_files_once(ahm, small_rows, min_run,
                                                   purgeable)
                if result is None:
                    done_files = True
                else:
                    bytes_rewritten += result[0]
                    rows_purged += result[1]
        return bytes_rewritten, rows_purged

    def _mergeout_runs(self, items: list, epochs: list[int], ahm: int,
                       small_rows: int, min_run: int,
                       rows_of) -> list[tuple[int, list]]:
        """Maximal runs of adjacent mergeable storage units.

        A run qualifies for rewrite when it holds ≥ ``min_run`` units
        smaller than ``small_rows`` (compaction) — purge-only rewrites are
        decided later, once the run's rowids have been decoded.
        """
        runs: list[tuple[int, list]] = []
        start, run = 0, []
        for i, (item, epoch) in enumerate(zip(items, epochs)):
            if epoch <= ahm:
                if not run:
                    start = i
                run.append(item)
            else:
                if run:
                    runs.append((start, run))
                run = []
        if run:
            runs.append((start, run))
        selected = []
        for start, members in runs:
            small = sum(1 for m in members if rows_of(m) < small_rows)
            if small >= min_run and len(members) >= 2:
                selected.append((start, members))
        return selected

    def _purge_only_runs(self, items: list, epochs: list[int], ahm: int,
                         purgeable: np.ndarray,
                         decode_rowids) -> list[tuple[int, list]]:
        """Single units (any size) that hold rows purgeable behind the AHM."""
        selected = []
        for i, (item, epoch) in enumerate(zip(items, epochs)):
            if epoch > ahm:
                continue
            rowids = decode_rowids(item)
            pos = np.searchsorted(purgeable, rowids)
            pos = np.minimum(pos, len(purgeable) - 1)
            if (purgeable[pos] == rowids).any():
                selected.append((i, [item]))
        return selected

    def _mergeout_memory_once(self, ahm, small_rows, min_run, purgeable):
        with self._mutation_lock:
            items = list(self._memory_rowgroups)
            epochs = list(self._memory_epochs)
        candidates = self._mergeout_runs(
            items, epochs, ahm, small_rows, min_run,
            rows_of=lambda rg: rg.row_count)
        if not candidates and len(purgeable):
            candidates = self._purge_only_runs(
                items, epochs, ahm, purgeable,
                decode_rowids=lambda rg: rg.read([ROWID_COLUMN])[ROWID_COLUMN])
        for start, members in candidates:
            merged = self._rewrite_run(members, ahm, purgeable)
            if merged is None:
                continue
            rowgroups, purged_rowids, nbytes = merged
            epoch = max(epochs[start:start + len(members)])
            with self._mutation_lock:
                current = self._memory_rowgroups[start:start + len(members)]
                if len(current) != len(members) or any(
                        a is not b for a, b in zip(current, members)):
                    continue  # storage moved under us; try again next pass
                self._memory_rowgroups[start:start + len(members)] = rowgroups
                self._memory_epochs[start:start + len(members)] = \
                    [epoch] * len(rowgroups)
                self.delete_vector.purge(purged_rowids)
            return nbytes, len(purged_rowids)
        return None

    def _mergeout_files_once(self, ahm, small_rows, min_run, purgeable):
        with self._mutation_lock:
            items = list(self._files)
            epochs = list(self._file_epochs)
        candidates = self._mergeout_runs(
            items, epochs, ahm, small_rows, min_run,
            rows_of=lambda f: f.row_count)
        if not candidates and len(purgeable):
            candidates = self._purge_only_runs(
                items, epochs, ahm, purgeable,
                decode_rowids=lambda f: np.concatenate([
                    rg.read([ROWID_COLUMN])[ROWID_COLUMN]
                    for rg in f.iter_rowgroups([ROWID_COLUMN])
                ]) if f.rowgroup_count else np.empty(0, dtype=np.int64))
        for start, members in candidates:
            merged = self._rewrite_file_run(members, ahm, purgeable)
            if merged is None:
                continue
            segment_file, purged_rowids, nbytes = merged
            epoch = max(epochs[start:start + len(members)])
            with self._mutation_lock:
                current = self._files[start:start + len(members)]
                if len(current) != len(members) or any(
                        a is not b for a, b in zip(current, members)):
                    continue
                # Old segment files leave the scan set but are not unlinked:
                # a concurrent capture may still hold a reference mid-read.
                # Space is reclaimed when the segment's directory goes away.
                self._files[start:start + len(members)] = [segment_file]
                self._file_epochs[start:start + len(members)] = [epoch]
                self.delete_vector.purge(purged_rowids)
            return nbytes, len(purged_rowids)
        return None

    def _rewrite_run(self, members: list[RowGroup], ahm: int,
                     purgeable: np.ndarray):
        names = [c.name for c in self.schema]
        arrays = _concat_stored([_RowGroupReader(rg, names) for rg in members])
        return self._filter_and_encode(arrays, ahm, purgeable)

    def _rewrite_file_run(self, members: list[SegmentFile], ahm: int,
                          purgeable: np.ndarray):
        names = [c.name for c in self.schema]
        decoded = []
        for segment_file in members:
            for rowgroup in segment_file.iter_rowgroups(names):
                decoded.append(_RowGroupReader(rowgroup, names))
        if not decoded:
            return None
        arrays = _concat_stored(decoded)
        result = self._filter_and_encode(arrays, ahm, purgeable)
        if result is None:
            return None
        rowgroups, purged_rowids, _ = result
        segment_file = self._write_segment_file(rowgroups)
        return segment_file, purged_rowids, segment_file.file_size

    def _filter_and_encode(self, arrays: dict[str, np.ndarray], ahm: int,
                           purgeable: np.ndarray):
        rowids = arrays[ROWID_COLUMN]
        if len(purgeable):
            pos = np.searchsorted(purgeable, rowids)
            pos = np.minimum(pos, max(len(purgeable) - 1, 0))
            purge_mask = purgeable[pos] == rowids
        else:
            purge_mask = np.zeros(len(rowids), dtype=bool)
        if purge_mask.any():
            arrays = {name: arr[~purge_mask] for name, arr in arrays.items()}
        purged_rowids = rowids[purge_mask]
        rows = len(arrays[ROWID_COLUMN])
        rowgroups = self._encode_rowgroups(arrays, rows) if rows else []
        nbytes = sum(rg.compressed_size for rg in rowgroups)
        return rowgroups, purged_rowids, nbytes

    # -- helpers -----------------------------------------------------------

    def _constrained_columns(self, ranges: dict | None) -> list[str]:
        """The subset of range constraints that name columns of this segment."""
        if not ranges:
            return []
        schema_names = {c.name for c in self.schema}
        return [name for name in ranges if name in schema_names]

    @staticmethod
    def _zone_maps_match(block_for, constrained: list[str], ranges: dict) -> bool:
        """False when any constrained column's zone map excludes the range."""
        for name in constrained:
            envelope = ranges[name]
            block = block_for(name)
            if not block.might_contain(envelope.low, envelope.high):
                return False
        return True

    def _schema_column(self, name: str) -> ColumnSchema:
        for column in self.schema:
            if column.name == name:
                return column
        raise StorageError(f"segment schema has no column {name!r}")


class _RowGroupReader:
    """Adapts a RowGroup to the ``.arrays`` shape ``_concat_stored`` eats."""

    __slots__ = ("arrays",)

    def __init__(self, rowgroup: RowGroup, names: list[str]) -> None:
        self.arrays = rowgroup.read(names)


def _concat_stored(batches: list) -> dict[str, np.ndarray]:
    names = list(batches[0].arrays)
    if len(batches) == 1:
        return dict(batches[0].arrays)
    return {
        name: np.concatenate([b.arrays[name] for b in batches])
        for name in names
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
        self.telemetry: "Telemetry | None" = None
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
                mask = assignment == node
                if not mask.any():
                    continue
                batch = {name: arr[mask] for name, arr in coerced.items()}
                batch[ROWID_COLUMN] = rowids[mask]
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
        if not direct and self.telemetry is not None:
            self.telemetry.gauge_add("wos_rows", rows)
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

    def scan_node(
        self, node: int, columns: list[str] | None = None,
        include_rowid: bool = False, ranges: dict | None = None,
        prune_counter=None, snapshot: "Snapshot | None" = None,
    ) -> dict[str, np.ndarray]:
        """Read one node's segment (used by UDF fan-out and transfers),
        optionally pruning row groups via zone maps (``ranges``)."""
        names = columns if columns is not None else self.column_names
        read_names = list(names)
        if include_rowid:
            read_names.append(ROWID_COLUMN)
        return self.segments[node].read_columns(
            read_names, ranges=ranges, prune_counter=prune_counter,
            snapshot=snapshot)

    def iter_node_batches(
        self, node: int, columns: list[str] | None = None,
        include_rowid: bool = False, ranges: dict | None = None,
        prune_counter=None, replica: bool = False,
        snapshot: "Snapshot | None" = None,
    ) -> Iterator[dict[str, np.ndarray]]:
        """Stream one node's segment (or its buddy replica) rowgroup-wise.

        Batches arrive in storage order, so concatenating them reproduces
        :meth:`scan_node` exactly.
        """
        if replica and self.buddy_segments is None:
            raise CatalogError(
                f"table {self.name!r} has no buddy projections (k_safety=0)"
            )
        names = columns if columns is not None else self.column_names
        read_names = list(names)
        if include_rowid:
            read_names.append(ROWID_COLUMN)
        segment = (self.buddy_segments if replica else self.segments)[node]
        return segment.iter_batches(read_names, ranges=ranges,
                                    prune_counter=prune_counter,
                                    snapshot=snapshot)

    def buddy_host(self, node: int) -> int | None:
        """Node holding the buddy replica of ``node``'s segment (k-safety)."""
        if self.buddy_segments is None:
            return None
        return (node + 1) % self.node_count

    def scan_all(self, columns: list[str] | None = None,
                 snapshot: "Snapshot | None" = None) -> dict[str, np.ndarray]:
        """Read the whole table, in arbitrary (segment) order."""
        names = columns if columns is not None else self.column_names
        if snapshot is None and self.epochs is not None:
            snapshot = self.epochs.snapshot()
        parts = [self.scan_node(node, names, snapshot=snapshot)
                 for node in range(self.node_count)]
        return {
            name: np.concatenate([p[name] for p in parts]) if parts else np.empty(0)
            for name in names
        }

    def scan_delta(self, columns: list[str] | None = None,
                   since_epoch: int = 0,
                   snapshot: "Snapshot | None" = None) -> dict[str, np.ndarray]:
        """Rows inserted in ``(since_epoch, snapshot]`` and still visible.

        The snapshot-delta query incremental model refresh runs: only
        storage stamped after ``since_epoch`` is decoded, so the cost scales
        with the trickle delta, not the table.  Deletes at-or-before the
        snapshot are applied to the delta rows as in a plain scan; use
        :meth:`has_deletes_between` to detect deletes the delta cannot
        express (rows the *old* window lost).
        """
        names = columns if columns is not None else self.column_names
        if snapshot is None and self.epochs is not None:
            snapshot = self.epochs.snapshot()
        parts = [
            segment.read_columns(names, snapshot=snapshot,
                                 since_epoch=since_epoch)
            for segment in self.segments
        ]
        return {
            name: np.concatenate([p[name] for p in parts]) if parts else np.empty(0)
            for name in names
        }

    def has_deletes_between(self, since_epoch: int,
                            snapshot: "Snapshot | None" = None) -> bool:
        """Whether any segment committed a delete in ``(since_epoch, snapshot]``."""
        if snapshot is None and self.epochs is not None:
            snapshot = self.epochs.snapshot()
        return any(
            segment.delete_epochs_between(since_epoch, snapshot)
            for segment in self.segments
        )
