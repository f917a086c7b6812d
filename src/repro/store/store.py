"""The queryable segment store: persistent, partitioned, zone-mapped.

:func:`open_store` opens (or initialises) a store directory;
:class:`Store` appends finalised :class:`~repro.trajectory.piecewise.
SegmentRecord` batches into per-``(device, time-bucket)`` partitions and
serves the typed query surface of :mod:`repro.store.query` over them.

Write path
----------
``append`` groups a batch by time bucket and, per partition, first
rewrites the zone map sidecar to *cover* the new batch (atomic temp file +
rename), then appends one columnar chunk to the partition's ``.seg`` file.
Because the covering bound lands on disk before the data, a crash between
the two writes can only leave zone maps that over-approximate — a query
may read a partition needlessly but can never skip one that holds matches,
so data skipping stays sound across crashes.  A *failing* append is
additionally all-or-nothing across buckets: chunks the same call already
wrote are rolled back, so a retry (``StoreSink.flush`` keeps its buffer)
re-sends the batch without duplicating segments.

Crash recovery
--------------
A crash *during* the data append leaves a torn tail chunk.  Opening a
store runs a recovery scan (:mod:`repro.store.recovery`): every partition
file gets a header-only integrity walk, torn tails are truncated back to
the committed chunk prefix (physically under the writer lock, logically —
reads clamp — without it), and the per-partition accounting is surfaced
as :attr:`Store.recovery`.  No partition is ever rendered unreadable by a
crash; at worst the half-written batch is lost, which is exactly the
pre-crash commit point.

Read path
---------
``query`` walks the partitions in canonical order (device id, then
bucket), consults each zone map against the spec's window/bbox/epsilon
predicates, and reads only the partitions that may contain matches; the
returned :class:`~repro.store.query.QueryResult` reports exactly how many
partitions the zone maps let it skip.  ``full_scan=True`` bypasses the
pruning (every partition is read) and — by construction, same scan order,
same row predicate — returns byte-identical results; the property tests
lock that equivalence in.

``window_aggregates`` additionally *pushes down* to the sidecars: a
partition whose zone map is exact (counts match the committed chunks) and
whose rows all provably match the spec contributes its precomputed
segment/point/length aggregates without its data file ever being read,
whenever each intersecting window fully covers the partition's time
range.  Fully-covered aggregates therefore run at ``scan_fraction`` 0.

Concurrency: one writer at a time per store directory, enforced by an
``O_EXCL`` lock file (:mod:`repro.store.locking`) acquired eagerly with
``open_store(..., writer=True)`` or lazily on the first append.  In-process
appends are additionally serialised by a mutex so hub shard threads can
share one store.  Readers see every fully appended chunk; the store
object caches zone maps, so a process that wants to observe another
writer's appends should re-open the store.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..exceptions import InvalidParameterError, StoreError
from ..trajectory.piecewise import SegmentRecord
from .layout import (
    DEVICES_DIR,
    LOCK_NAME,
    MANIFEST_NAME,
    PartitionKey,
    PartitionScan,
    ZoneMap,
    bucket_of,
    bucket_of_data_name,
    decode_device_dir,
    encode_chunk,
    encode_device_dir,
    load_manifest,
    partition_data_name,
    partition_zonemap_name,
    read_zonemap,
    salvage_chunks,
    scan_partition_file,
    write_manifest,
    write_zonemap,
)
from .locking import StoreLock
from .query import (
    AggregateResult,
    QueryResult,
    QuerySpec,
    StoredSegment,
    WindowAggregate,
)
from .recovery import PartitionRepair, RecoveryReport, repair_partition
from .sink import StoreSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .compact import CompactionReport

__all__ = ["DEFAULT_TIME_BUCKET", "Store", "open_store"]

DEFAULT_TIME_BUCKET = 3600.0
"""Default partition width on the time axis, in timestamp units (seconds)."""


def open_store(
    path: str | Path,
    *,
    time_bucket: float | None = None,
    create: bool = True,
    writer: bool = False,
) -> "Store":
    """Open a segment store directory, initialising it when absent.

    Parameters
    ----------
    path:
        The store's root directory.
    time_bucket:
        Partition width on the time axis, used only when initialising a new
        store (default :data:`DEFAULT_TIME_BUCKET`).  Opening an existing
        store with an explicit ``time_bucket`` that contradicts its
        manifest raises :class:`~repro.exceptions.StoreError` — the layout
        on disk is authoritative.
    create:
        When False, refuse to initialise a missing store.
    writer:
        When True, acquire the single-writer lock eagerly — a second
        writer on the same directory fails right here instead of on its
        first append.  The default acquires lazily on the first mutating
        call, so pure readers never contend for the lock.

    Raises
    ------
    StoreError
        On a malformed or version-incompatible manifest, a non-store
        path, a live writer already holding the lock (``writer=True``),
        or (with ``create=False``) a missing store.
    InvalidParameterError
        On a non-positive or non-finite ``time_bucket``.
    """
    root = Path(path)
    if time_bucket is not None:
        time_bucket = float(time_bucket)
        if not (math.isfinite(time_bucket) and time_bucket > 0.0):
            raise InvalidParameterError(
                f"time_bucket must be a positive float, got {time_bucket!r}"
            )
    if root.exists() and not root.is_dir():
        raise StoreError(
            f"{str(root)!r} exists and is not a directory; cannot open a "
            f"segment store there"
        )
    if root.is_dir():
        _sweep_stale_tmp(root)
    if (root / MANIFEST_NAME).exists():
        payload = load_manifest(root)
        stored = float(payload["time_bucket"])  # type: ignore[arg-type]
        if time_bucket is not None and time_bucket != stored:
            raise StoreError(
                f"store {str(root)!r} was created with time_bucket {stored!r}; "
                f"cannot reopen with {time_bucket!r}"
            )
        return Store(root, time_bucket=stored, writer=writer)
    if not create:
        raise StoreError(f"no segment store at {str(root)!r}")
    if root.exists() and not _is_reinitialisable(root):
        raise StoreError(
            f"directory {str(root)!r} exists, is not empty and has no store "
            f"manifest; refusing to initialise a store inside it"
        )
    effective = DEFAULT_TIME_BUCKET if time_bucket is None else time_bucket
    (root / DEVICES_DIR).mkdir(parents=True, exist_ok=True)
    write_manifest(root, time_bucket=effective)
    return Store(root, time_bucket=effective, writer=writer)


def _sweep_stale_tmp(root: Path) -> None:
    """Remove temp files left by crashed atomic writes.

    Only the store's own temp names are touched — the manifest temp and
    lock-reclaim claim files at the root, plus ``*.tmp`` inside device
    directories (zone map and compaction temps) — so opening never
    deletes foreign files from a directory that turns out not to be a
    store.
    """
    candidates = [root / (MANIFEST_NAME + ".tmp")]
    candidates.extend(sorted(root.glob(LOCK_NAME + ".reclaim.*")))
    devices_root = root / DEVICES_DIR
    if devices_root.is_dir():
        for device_dir in sorted(devices_root.iterdir()):
            if device_dir.is_dir():
                candidates.extend(sorted(device_dir.glob("*.tmp")))
    for candidate in candidates:
        if candidate.is_file():
            candidate.unlink(missing_ok=True)


def _is_reinitialisable(root: Path) -> bool:
    """Whether a manifest-less directory may be (re)initialised as a store.

    True for an empty directory and for the debris of a crash mid-init:
    an empty ``devices/`` tree and/or a leftover lock file.  Anything else
    (foreign files, actual partition data without a manifest) refuses.
    """
    for entry in root.iterdir():
        if entry.name == LOCK_NAME and entry.is_file():
            continue
        if entry.name == DEVICES_DIR and entry.is_dir():
            if any(entry.iterdir()):
                return False
            continue
        return False
    return True


class _PartitionState:
    """Committed-on-disk truth of one partition (vs the covering zone map).

    ``chunks``/``segments``/``valid_bytes`` describe the fully-committed
    chunk prefix; ``pending_repair`` marks a torn tail that could not be
    physically truncated at open (no writer lock) — reads clamp to
    ``valid_bytes`` until the lock is acquired and the truncation flushed.
    """

    __slots__ = ("chunks", "segments", "valid_bytes", "pending_repair")

    def __init__(
        self, chunks: int, segments: int, valid_bytes: int, pending_repair: bool
    ) -> None:
        self.chunks = chunks
        self.segments = segments
        self.valid_bytes = valid_bytes
        self.pending_repair = pending_repair


class Store:
    """A persistent, columnar, append-only segment log with data skipping.

    Not constructed directly — use :func:`open_store`.
    """

    def __init__(
        self, root: Path, *, time_bucket: float, writer: bool = False
    ) -> None:
        self._root = root
        self._time_bucket = time_bucket
        self._zonemaps: dict[PartitionKey, ZoneMap] = {}
        self._states: dict[PartitionKey, _PartitionState] = {}
        self._mutex = threading.Lock()
        self._lock = StoreLock(root)
        if writer:
            self._lock.acquire()
        # GC of an un-closed store must not leave a live-looking lock file
        # behind; release is idempotent, so an explicit close() comes first
        # harmlessly.
        self._finalizer = weakref.finalize(self, StoreLock.release, self._lock)
        self._load_zonemaps()
        self._recovery = self._recover()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    @property
    def time_bucket(self) -> float:
        """Partition width on the time axis (from the manifest)."""
        return self._time_bucket

    @property
    def n_partitions(self) -> int:
        """Number of ``(device, bucket)`` partitions on disk."""
        return len(self._zonemaps)

    @property
    def n_segments(self) -> int:
        """Total committed segments on disk.

        Counted from the recovery scan's committed chunk prefixes, not the
        zone maps — after a crash the sidecars may over-approximate (that
        is what keeps pruning sound), but this number never does.
        """
        return sum(state.segments for state in self._states.values())

    @property
    def recovery(self) -> RecoveryReport:
        """What the open-time recovery scan found and repaired."""
        return self._recovery

    @property
    def is_writer(self) -> bool:
        """Whether this handle currently holds the single-writer lock."""
        return self._lock.held

    def devices(self) -> list[str]:
        """Sorted device ids with at least one partition."""
        return sorted({key.device_id for key in self._zonemaps})

    def levels(self) -> list[float]:
        """Distinct stored epsilons, ascending — the resolution ladder.

        Level 0 is the finest stored bound.  A pyramid ingest
        (:meth:`pyramid_sink_factory`) stores one level per rung, so this
        mirrors the hub's ``epsilons=[...]`` ladder; single-epsilon ingest
        yields a one-level ladder.  Computed from the zone-map sidecars.
        """
        return sorted(
            {eps for zonemap in self._zonemaps.values() for eps in zonemap.epsilons}
        )

    def partitions(self) -> list[tuple[PartitionKey, ZoneMap]]:
        """Every partition and its zone map, in canonical scan order."""
        return [(key, self._zonemaps[key]) for key in sorted(self._zonemaps)]

    def time_range(self) -> tuple[float, float] | None:
        """Covering ``(t_min, t_max)`` over every partition (None if empty)."""
        if not self._zonemaps:
            return None
        return (
            min(zonemap.t_min for zonemap in self._zonemaps.values()),
            max(zonemap.t_max for zonemap in self._zonemaps.values()),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the single-writer lock (idempotent).

        The handle stays usable as a reader; the next mutating call
        re-acquires the lock.
        """
        self._lock.release()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def append(
        self,
        device_id: str,
        segments: SegmentRecord | Iterable[SegmentRecord],
        *,
        epsilon: float,
    ) -> int:
        """Append finalised segments for one device; returns the count.

        The batch is grouped by time bucket (``floor(start.t /
        time_bucket)``); each group becomes one columnar chunk in its
        partition, with the partition's zone map extended to cover it
        first.  Within a partition, append order is preserved — it is the
        canonical scan order queries return.

        The first (non-empty) append acquires the store's single-writer
        lock and flushes any torn-tail repairs the open-time recovery had
        to defer; appends are serialised in-process, so hub shard threads
        may share one store.

        A failing append is all-or-nothing across buckets: the chunks
        already written by the same call are rolled back (the widened
        zone maps stay behind as sound over-approximation), so a retrying
        caller — :meth:`StoreSink.flush` keeps its buffer on failure —
        can re-send the whole batch without duplicating segments.

        Raises
        ------
        InvalidParameterError
            On a non-positive/non-finite ``epsilon``.
        StoreError
            When a segment carries non-finite coordinates (the zone map
            must stay strict-JSON serialisable), when another live writer
            holds the lock, or on an I/O failure.
        """
        epsilon = float(epsilon)
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise InvalidParameterError(
                f"epsilon must be a positive float, got {epsilon!r}"
            )
        batch = (
            [segments] if isinstance(segments, SegmentRecord) else list(segments)
        )
        if not batch:
            return 0
        for record in batch:
            if not (record.start.is_finite() and record.end.is_finite()):
                raise StoreError(
                    f"segment [{record.first_index}, {record.last_index}] of "
                    f"device {device_id!r} has non-finite coordinates"
                )
        grouped: dict[int, list[SegmentRecord]] = {}
        for record in batch:
            grouped.setdefault(
                bucket_of(record.start.t, self._time_bucket), []
            ).append(record)
        with self._mutex:
            self._ensure_writer()
            device_dir = self._root / DEVICES_DIR / encode_device_dir(device_id)
            device_dir.mkdir(parents=True, exist_ok=True)
            # All-or-nothing across buckets: every touched file's pre-append
            # length is recorded so a failure can cut the already-written
            # chunks back, and the in-memory caches are only updated once
            # every bucket's bytes are durably appended.
            written: list[tuple[Path, int]] = []
            applied: list[tuple[PartitionKey, ZoneMap, int, int]] = []
            try:
                for bucket in sorted(grouped):
                    chunk = grouped[bucket]
                    key = PartitionKey(device_id, bucket)
                    addition = ZoneMap.of_rows([(record, epsilon) for record in chunk])
                    existing = self._zonemaps.get(key)
                    merged = addition if existing is None else existing.merge(addition)
                    encoded = encode_chunk(chunk, epsilon)
                    # Covering-first write order: the widened zone map lands
                    # before the data it describes, so a crash in between can
                    # only leave an over-approximating bound — pruning stays
                    # sound.
                    write_zonemap(device_dir / partition_zonemap_name(bucket), merged)
                    path = device_dir / partition_data_name(bucket)
                    try:
                        pre_size = path.stat().st_size
                    except FileNotFoundError:
                        pre_size = 0
                    written.append((path, pre_size))
                    try:
                        with open(path, "ab") as handle:
                            handle.write(encoded)
                    except OSError as error:
                        raise StoreError(
                            f"cannot append to partition {key}: {error}"
                        ) from error
                    applied.append((key, merged, len(chunk), len(encoded)))
            except BaseException:
                self._rollback_append(written)
                raise
            for key, merged, chunk_rows, chunk_bytes in applied:
                self._zonemaps[key] = merged
                state = self._states.get(key)
                if state is None:
                    state = self._states[key] = _PartitionState(0, 0, 0, False)
                state.chunks += 1
                state.segments += chunk_rows
                state.valid_bytes += chunk_bytes
        return len(batch)

    @staticmethod
    def _rollback_append(written: list[tuple[Path, int]]) -> None:
        """Best-effort undo of a failed multi-bucket append.

        Every touched partition file is cut back to its recorded
        pre-append length (a file the call created is removed outright),
        including the partially-written one the failure interrupted, so a
        retry re-sends the whole batch without duplicating the buckets
        that had already landed.  The widened zone maps stay behind —
        over-approximation is sound.
        """
        for path, pre_size in written:
            try:
                if pre_size == 0:
                    path.unlink(missing_ok=True)
                else:
                    os.truncate(path, pre_size)
            except OSError:  # pragma: no cover - rollback is best effort
                pass

    def compact(
        self, device: str | None = None, *, min_chunks: int = 2
    ) -> "CompactionReport":
        """Rewrite multi-chunk partitions into single-chunk form.

        See :func:`repro.store.compact.compact_partitions` — query results
        are byte-identical before/after, and compaction doubles as the
        physical repair path for salvaged partitions.
        """
        from .compact import compact_partitions

        return compact_partitions(self, device=device, min_chunks=min_chunks)

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def query(
        self,
        spec: QuerySpec | None = None,
        *,
        device: str | None = None,
        window: tuple[float, float] | None = None,
        bbox: tuple[float, float, float, float] | None = None,
        epsilon: float | None = None,
        level: int | None = None,
        max_deviation: float | None = None,
        full_scan: bool = False,
    ) -> QueryResult:
        """Run one typed query; returns matches plus skipping accounting.

        Pass either a prepared :class:`~repro.store.query.QuerySpec` or the
        individual predicates (not both).  ``level``/``max_deviation``
        resolve against the stored epsilon ladder (:meth:`levels`) before
        any partition is consulted: ``level`` picks that rung's epsilon,
        ``max_deviation`` picks the *coarsest* stored epsilon within the
        SLA (and matches nothing when no stored level qualifies) — the
        returned spec carries the concrete epsilon that ran.
        ``full_scan=True`` bypasses zone-map pruning — every partition the
        device predicate admits is read, the row predicate still applies —
        and returns byte-identical results; use it to audit pruning
        soundness or measure its benefit.
        """
        spec = self._resolve_spec(
            spec, device, window, bbox, epsilon, level, max_deviation
        )
        spec, matchable = self._resolve_levels(spec)
        matched: list[StoredSegment] = []
        partitions_scanned = 0
        segments_scanned = 0
        if matchable:
            for key in sorted(self._zonemaps):
                if not full_scan and not self._may_match(
                    spec, key, self._zonemaps[key]
                ):
                    continue
                if full_scan and spec.device is not None and key.device_id != spec.device:
                    # Even a full scan stays within the device predicate's
                    # partitions: partitions_total counts those, and
                    # full_scan audits pruning, not device routing.
                    continue
                rows = self._read_partition(key)
                partitions_scanned += 1
                segments_scanned += len(rows)
                for record, record_epsilon in rows:
                    if spec.matches(key.device_id, record_epsilon, record):
                        matched.append(
                            StoredSegment(key.device_id, record_epsilon, record)
                        )
        return QueryResult(
            spec=spec,
            segments=tuple(matched),
            partitions_total=self._partitions_total(spec),
            partitions_scanned=partitions_scanned,
            segments_scanned=segments_scanned,
            full_scan=full_scan,
        )

    def window_aggregates(
        self,
        spec: QuerySpec | None = None,
        *,
        width: float,
        step: float | None = None,
        device: str | None = None,
        window: tuple[float, float] | None = None,
        bbox: tuple[float, float, float, float] | None = None,
        epsilon: float | None = None,
        level: int | None = None,
        max_deviation: float | None = None,
        pushdown: bool = True,
    ) -> AggregateResult:
        """Sliding-window aggregates over the spec's matching segments.

        Windows of ``width`` advance by ``step`` (default: ``width``, i.e.
        tumbling) across the spec's time window — or, when the spec has
        none, across the matched segments' covering time range.  A segment
        contributes to every window its **closed** time span intersects
        (both edges inclusive, matching :meth:`QuerySpec.matches`).

        With ``pushdown=True`` (the default), partitions whose zone map is
        exact and whose rows all provably satisfy the spec are answered
        from the sidecar's precomputed aggregates — no data file read —
        whenever every intersecting window fully covers the partition's
        time range.  ``pushdown=False`` forces the row-scan path; both
        paths return equal aggregates (``total_length`` up to float
        summation order), which the property tests pin.
        """
        width = float(width)
        if not (math.isfinite(width) and width > 0.0):
            raise InvalidParameterError(
                f"width must be a positive float, got {width!r}"
            )
        step = width if step is None else float(step)
        if not (math.isfinite(step) and step > 0.0):
            raise InvalidParameterError(f"step must be a positive float, got {step!r}")
        spec = self._resolve_spec(
            spec, device, window, bbox, epsilon, level, max_deviation
        )
        spec, matchable = self._resolve_levels(spec)

        scan_keys: list[PartitionKey] = []
        push_keys: list[PartitionKey] = []
        if matchable:
            for key in sorted(self._zonemaps):
                zonemap = self._zonemaps[key]
                if not self._may_match(spec, key, zonemap):
                    continue
                if pushdown and self._pushdown_eligible(spec, key, zonemap):
                    push_keys.append(key)
                else:
                    scan_keys.append(key)

        matched: list[StoredSegment] = []
        partitions_scanned = 0
        segments_scanned = 0

        def scan(key: PartitionKey) -> None:
            nonlocal partitions_scanned, segments_scanned
            rows = self._read_partition(key)
            partitions_scanned += 1
            segments_scanned += len(rows)
            for record, record_epsilon in rows:
                if spec.matches(key.device_id, record_epsilon, record):
                    matched.append(
                        StoredSegment(key.device_id, record_epsilon, record)
                    )

        for key in scan_keys:
            scan(key)

        def result(windows: tuple[WindowAggregate, ...]) -> AggregateResult:
            return AggregateResult(
                spec=spec,
                width=width,
                step=step,
                windows=windows,
                partitions_total=self._partitions_total(spec),
                partitions_scanned=partitions_scanned,
                partitions_pushdown=len(push_keys),
                segments_scanned=segments_scanned,
                pushdown=pushdown,
            )

        # The window grid: the spec's window, else the covering time range
        # of everything that matched.  A pushdown partition's zone map
        # range *is* the exact min/max span of its rows (all of which
        # match), so the grid is identical on both paths.
        if spec.window is not None:
            t_low, t_high = spec.window
        else:
            bounds = [
                (
                    min(s.record.start.t, s.record.end.t),
                    max(s.record.start.t, s.record.end.t),
                )
                for s in matched
            ]
            bounds.extend(
                (self._zonemaps[key].t_min, self._zonemaps[key].t_max)
                for key in push_keys
            )
            if not bounds:
                return result(())
            t_low = min(low for low, _ in bounds)
            t_high = max(high for _, high in bounds)

        grid: list[tuple[float, float]] = []
        index = 0
        while True:
            w_start = t_low + index * step
            if w_start > t_high:
                break
            grid.append((w_start, w_start + width))
            index += 1

        # Per-partition pushdown needs every intersecting window to fully
        # cover the partition's time range (then *all* rows contribute and
        # the sidecar aggregates are exact).  Demote the rest to a scan —
        # their rows still all match, so the grid stays unchanged.
        final_push: list[PartitionKey] = []
        for key in push_keys:
            zonemap = self._zonemaps[key]
            covered = all(
                w_start <= zonemap.t_min and zonemap.t_max <= w_end
                for w_start, w_end in grid
                if zonemap.t_min <= w_end and zonemap.t_max >= w_start
            )
            if covered:
                final_push.append(key)
            else:
                scan(key)
        push_keys = final_push

        aggregates: list[WindowAggregate] = []
        for w_start, w_end in grid:
            segments = 0
            points = 0
            total_length = 0.0
            device_ids: set[str] = set()
            for stored in matched:
                span_low = min(stored.record.start.t, stored.record.end.t)
                span_high = max(stored.record.start.t, stored.record.end.t)
                if span_low <= w_end and span_high >= w_start:
                    segments += 1
                    points += stored.record.point_count
                    total_length += stored.record.length
                    device_ids.add(stored.device_id)
            for key in push_keys:
                zonemap = self._zonemaps[key]
                if zonemap.t_min <= w_end and zonemap.t_max >= w_start:
                    segments += zonemap.segments
                    points += zonemap.points or 0
                    total_length += zonemap.total_length or 0.0
                    device_ids.add(key.device_id)
            ordered = tuple(sorted(device_ids))
            aggregates.append(
                WindowAggregate(
                    t_start=w_start,
                    t_end=w_end,
                    segments=segments,
                    devices=len(ordered),
                    points=points,
                    total_length=total_length,
                    device_ids=ordered,
                )
            )
        return result(tuple(aggregates))

    # ------------------------------------------------------------------ #
    # Live ingest (the sink protocol)
    # ------------------------------------------------------------------ #
    def sink(
        self, device_id: str, *, epsilon: float, buffer_size: int = 256
    ) -> StoreSink:
        """A :class:`~repro.store.sink.StoreSink` persisting one device."""
        return StoreSink(self, device_id, epsilon=epsilon, buffer_size=buffer_size)

    def sink_factory(
        self, *, epsilon: float, buffer_size: int = 256
    ) -> Callable[[str], StoreSink]:
        """A ``device_id -> StoreSink`` factory for :class:`StreamHub` /
        ``run_many`` — every device persists into this store."""

        def factory(device_id: str) -> StoreSink:
            return self.sink(device_id, epsilon=epsilon, buffer_size=buffer_size)

        return factory

    def pyramid_sink_factory(
        self, epsilons: Sequence[float], *, buffer_size: int = 256
    ) -> Callable[[str, int], StoreSink]:
        """A ``(device_id, level) -> StoreSink`` factory for pyramid hubs.

        Level ``i`` persists under ``epsilons[i]``, so the stored ladder
        (:meth:`levels`) mirrors the hub's.  Pass the same list as
        ``StreamHub(epsilons=...)``, wiring the finest level through
        :meth:`sink_factory` (``epsilon=epsilons[0]``) and the coarse
        levels through this factory (``level_sink_factory=...``).
        """
        ladder: list[float] = []
        for value in epsilons:
            eps = float(value)
            if not (math.isfinite(eps) and eps > 0.0):
                raise InvalidParameterError(
                    f"epsilons must be positive finite floats, got {value!r}"
                )
            if ladder and eps <= ladder[-1]:
                raise InvalidParameterError(
                    f"epsilons must be strictly ascending, "
                    f"got {eps!r} after {ladder[-1]!r}"
                )
            ladder.append(eps)
        if not ladder:
            raise InvalidParameterError("epsilons must not be empty")

        def factory(device_id: str, level: int) -> StoreSink:
            if not 0 <= level < len(ladder):
                raise InvalidParameterError(
                    f"level {level} is outside the {len(ladder)}-level ladder"
                )
            return self.sink(
                device_id, epsilon=ladder[level], buffer_size=buffer_size
            )

        return factory

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_spec(
        spec: QuerySpec | None,
        device: str | None,
        window: tuple[float, float] | None,
        bbox: tuple[float, float, float, float] | None,
        epsilon: float | None,
        level: int | None = None,
        max_deviation: float | None = None,
    ) -> QuerySpec:
        if spec is None:
            return QuerySpec(
                device=device,
                window=window,
                bbox=bbox,
                epsilon=epsilon,
                level=level,
                max_deviation=max_deviation,
            )
        if (
            device is not None
            or window is not None
            or bbox is not None
            or epsilon is not None
            or level is not None
            or max_deviation is not None
        ):
            raise InvalidParameterError(
                "pass either a QuerySpec or individual predicates, not both"
            )
        return spec

    def _resolve_levels(self, spec: QuerySpec) -> tuple[QuerySpec, bool]:
        """Rewrite ``level``/``max_deviation`` into a concrete epsilon.

        Returns ``(resolved_spec, matchable)``.  ``matchable`` is False
        when ``max_deviation`` admits no stored level — the query matches
        nothing, but its accounting is still reported.  An out-of-range
        ``level`` raises: the caller named a rung that does not exist.
        """
        if spec.level is None and spec.max_deviation is None:
            return spec, True
        ladder = self.levels()
        if spec.level is not None:
            if spec.level >= len(ladder):
                raise InvalidParameterError(
                    f"level {spec.level} is not stored; this store holds "
                    f"{len(ladder)} level(s): {ladder!r}"
                )
            return replace(spec, epsilon=ladder[spec.level], level=None), True
        qualifying = [eps for eps in ladder if eps <= spec.max_deviation]
        if not qualifying:
            return replace(spec, max_deviation=None), False
        # The coarsest stored bound within the SLA: fewest segments that
        # still honour the requested deviation.
        return replace(spec, epsilon=qualifying[-1], max_deviation=None), True

    def _partitions_total(self, spec: QuerySpec) -> int:
        """Partitions the device predicate admits (the skipping baseline).

        Counting only the queried device's partitions keeps
        ``scan_fraction`` meaningful: an unknown device (or an empty
        store) reports ``partitions_total == 0`` and scan fraction 0.0
        instead of crediting the query with skipping partitions it could
        never have read.
        """
        if spec.device is None:
            return len(self._zonemaps)
        return sum(1 for key in self._zonemaps if key.device_id == spec.device)

    @staticmethod
    def _may_match(spec: QuerySpec, key: PartitionKey, zonemap: ZoneMap) -> bool:
        """Zone-map admission: False only when no contained segment can match."""
        if spec.device is not None and key.device_id != spec.device:
            return False
        if spec.window is not None and not zonemap.may_intersect_window(spec.window):
            return False
        if spec.bbox is not None and not zonemap.may_intersect_bbox(spec.bbox):
            return False
        if spec.epsilon is not None and not zonemap.may_contain_epsilon(spec.epsilon):
            return False
        return True

    def _pushdown_eligible(
        self, spec: QuerySpec, key: PartitionKey, zonemap: ZoneMap
    ) -> bool:
        """Whether every row of the partition provably satisfies ``spec``.

        Requires an *exact* zone map — counts equal to the committed
        chunks (a crash-widened sidecar over-approximates and must scan) —
        with the aggregate fields present, and spec predicates that cover
        the zone map's bounds outright: the window contains the time
        range, the bbox contains the bounding box, the epsilon set is
        exactly the queried one.  Device equality is already guaranteed by
        :meth:`_may_match` admission.
        """
        state = self._states.get(key)
        if state is None or state.pending_repair:
            return False
        if zonemap.points is None or zonemap.total_length is None:
            return False
        if zonemap.segments != state.segments or zonemap.chunks != state.chunks:
            return False
        if zonemap.segments == 0:
            return False
        if spec.window is not None and not (
            spec.window[0] <= zonemap.t_min and zonemap.t_max <= spec.window[1]
        ):
            return False
        if spec.bbox is not None and not (
            spec.bbox[0] <= zonemap.x_min
            and zonemap.x_max <= spec.bbox[2]
            and spec.bbox[1] <= zonemap.y_min
            and zonemap.y_max <= spec.bbox[3]
        ):
            return False
        if spec.epsilon is not None and zonemap.epsilons != (spec.epsilon,):
            return False
        return True

    def _partition_path(self, key: PartitionKey) -> Path:
        return (
            self._root
            / DEVICES_DIR
            / encode_device_dir(key.device_id)
            / partition_data_name(key.bucket)
        )

    def _zonemap_path(self, key: PartitionKey) -> Path:
        return (
            self._root
            / DEVICES_DIR
            / encode_device_dir(key.device_id)
            / partition_zonemap_name(key.bucket)
        )

    def _ensure_writer(self) -> None:
        """Acquire the writer lock (caller holds the mutex) and flush any
        torn-tail truncations the open-time recovery had to defer.

        Each deferred partition is re-scanned under the lock before it is
        cut: the writer that blocked the open-time repair may since have
        committed the tail this handle saw torn — its then-in-flight
        chunk — and appended more, so truncating at the remembered offset
        would destroy durably committed data.  Only a file that is
        *still* torn is truncated, at the fresh scan's offset, and the
        state and zone-map caches are refreshed from disk either way.
        """
        if self._lock.held:
            return
        self._lock.acquire()
        for key, state in self._states.items():
            if not state.pending_repair:
                continue
            path = self._partition_path(key)
            if not path.exists():
                state.chunks = state.segments = state.valid_bytes = 0
            else:
                scan = scan_partition_file(path)
                if scan.damaged:
                    repair_partition(key, scan, truncate=True)
                state.chunks = scan.chunks
                state.segments = scan.segments
                state.valid_bytes = scan.valid_bytes
            state.pending_repair = False
            zonemap_file = self._zonemap_path(key)
            if zonemap_file.exists():
                self._zonemaps[key] = read_zonemap(zonemap_file)

    def _recover(self) -> RecoveryReport:
        """Open-time recovery scan: find torn tails, repair, account.

        Physical truncation needs the single-writer lock; when this handle
        does not hold one, a transient acquisition is attempted — if a
        live writer genuinely holds the lock, the repair stays logical
        (reads clamp to the committed prefix) and the truncation is
        deferred to :meth:`_ensure_writer`.
        """
        scans: dict[PartitionKey, PartitionScan] = {}
        for key in sorted(self._zonemaps):
            path = self._partition_path(key)
            if path.exists():
                scans[key] = scan_partition_file(path)
        damaged = [key for key, scan in scans.items() if scan.damaged]
        transient = False
        if damaged and not self._lock.held:
            try:
                self._lock.acquire()
                transient = True
            except StoreError:
                pass
        repairs: list[PartitionRepair] = []
        try:
            if damaged and self._lock.held:
                # The integrity scan ran before the lock was acquired; in
                # between, a then-live writer may have committed the "torn"
                # tail (its in-flight chunk) and appended more.  Re-scan
                # under the lock and truncate only what is still torn, at
                # the fresh scan's offset.
                for key in damaged:
                    path = self._partition_path(key)
                    scans[key] = (
                        scan_partition_file(path)
                        if path.exists()
                        else PartitionScan(path, 0, 0, 0, 0, None)
                    )
                damaged = [key for key in damaged if scans[key].damaged]
            for key in damaged:
                repairs.append(
                    repair_partition(key, scans[key], truncate=self._lock.held)
                )
        finally:
            if transient:
                self._lock.release()
        for key in sorted(self._zonemaps):
            scan = scans.get(key)
            if scan is None:
                self._states[key] = _PartitionState(0, 0, 0, False)
            else:
                self._states[key] = _PartitionState(
                    scan.chunks,
                    scan.segments,
                    scan.valid_bytes,
                    scan.damaged and not any(
                        repair.key == key and repair.truncated for repair in repairs
                    ),
                )
        return RecoveryReport(
            partitions_scanned=len(scans), repairs=tuple(repairs)
        )

    def _read_partition(self, key: PartitionKey) -> list[tuple[SegmentRecord, float]]:
        path = self._partition_path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            # Crash window: the covering zone map landed but the data
            # append never happened.  The partition is legitimately empty.
            return []
        except OSError as error:
            raise StoreError(f"cannot read partition {key}: {error}") from error
        state = self._states.get(key)
        if state is not None and state.pending_repair:
            # Torn tail that could not be physically truncated at open
            # (another writer holds the lock): clamp to the committed
            # prefix so the read observes exactly the recovered rows.
            data = data[: state.valid_bytes]
        rows: list[tuple[SegmentRecord, float]] = []
        # Salvage rather than decode: the file is re-read on every query,
        # so even after a clean open a concurrent writer's half-flushed
        # chunk can become visible mid-read.  Clamping to the committed
        # chunk prefix keeps the documented contract — readers see every
        # fully appended chunk, never a torn byte — instead of turning
        # the race into a query-failing StoreError.
        chunks, _ = salvage_chunks(data, source=str(path))
        for chunk in chunks:
            rows.extend(chunk)
        return rows

    def _load_zonemaps(self) -> None:
        devices_root = self._root / DEVICES_DIR
        if not devices_root.is_dir():
            raise StoreError(
                f"store {str(self._root)!r} is missing its {DEVICES_DIR}/ directory"
            )
        for device_dir in sorted(devices_root.iterdir()):
            if not device_dir.is_dir():
                continue
            device_id = decode_device_dir(device_dir.name)
            sidecars: set[int] = set()
            data_files: set[int] = set()
            for entry in sorted(device_dir.iterdir()):
                name = entry.name
                if name.endswith(".zm.json") and name.startswith("b"):
                    try:
                        sidecars.add(int(name[1 : -len(".zm.json")]))
                    except ValueError:
                        continue
                else:
                    bucket = bucket_of_data_name(name)
                    if bucket is not None:
                        data_files.add(bucket)
            orphans = sorted(data_files - sidecars)
            if orphans:
                raise StoreError(
                    f"partition data without a zone map sidecar for device "
                    f"{device_id!r}, bucket(s) {orphans} — the store cannot "
                    f"guarantee sound pruning over unindexed data"
                )
            for bucket in sorted(sidecars):
                self._zonemaps[PartitionKey(device_id, bucket)] = read_zonemap(
                    device_dir / partition_zonemap_name(bucket)
                )

    def __repr__(self) -> str:
        return (
            f"Store(root={str(self._root)!r}, time_bucket={self._time_bucket!r}, "
            f"partitions={self.n_partitions}, segments={self.n_segments})"
        )
