"""Partition compaction: many small chunks → one, byte-identical queries.

Every :meth:`repro.store.Store.append` adds one chunk to its partition,
so live ingest (hub sinks flushing small batches) leaves partitions made
of many tiny chunks — each paying header and decode overhead on every
scan.  Compaction rewrites such a partition as a *single* chunk holding
the same rows in the same canonical append order, with the epsilon kept
per row (the chunk codec stores it per row precisely so multi-epsilon
partitions compact losslessly).  Query results are byte-identical before
and after — the property tests lock that in.

Compaction is also the store's physical repair path: a partition whose
sidecar was widened by a crash (zone map counts over-approximate the
committed chunks) gets its zone map rewritten *exact* from the rows that
actually survive, restoring its eligibility for aggregate pushdown.  A
crash-window partition that holds no committed rows at all (covering
sidecar, no data) is dropped outright — data file first, then sidecar,
so an interrupted drop never creates unindexed data.

The rewrite is crash-safe: the replacement chunk lands via temp file +
atomic rename, and the exact zone map is written after it.  A crash
between the two leaves the old covering sidecar over the compacted data —
over-approximating counts, sound pruning, repaired by the next
compaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import InvalidParameterError, StoreError
from .layout import (
    DEVICES_DIR,
    PartitionKey,
    ZoneMap,
    encode_chunk_rows,
    encode_device_dir,
    partition_zonemap_name,
    write_zonemap,
)
from .query import QuerySpec, StoredSegment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .store import Store

__all__ = ["CompactionReport", "PartitionCompaction", "compact_partitions"]

_EVERY_ROW = QuerySpec()
"""The unconstrained spec compaction scans with: it rewrites every row."""


@dataclass(frozen=True, slots=True)
class PartitionCompaction:
    """Accounting for one partition the compactor rewrote (or dropped)."""

    key: PartitionKey
    chunks_before: int
    chunks_after: int
    """1 for a rewrite, 0 for a dropped crash-window partition."""
    segments: int
    bytes_before: int
    bytes_after: int
    repaired: bool
    """True when the partition's sidecar over-approximated the committed
    chunks (crash debris) and was rewritten exact."""

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (used by the CLI)."""
        return {
            "device": self.key.device_id,
            "bucket": self.key.bucket,
            "chunks_before": self.chunks_before,
            "chunks_after": self.chunks_after,
            "segments": self.segments,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "repaired": self.repaired,
        }


@dataclass(frozen=True, slots=True)
class CompactionReport:
    """What one :meth:`repro.store.Store.compact` pass did."""

    partitions_considered: int
    compacted: tuple[PartitionCompaction, ...]

    @property
    def partitions_compacted(self) -> int:
        """Partitions rewritten or dropped by this pass."""
        return len(self.compacted)

    @property
    def partitions_removed(self) -> int:
        """Crash-window partitions dropped (no committed rows)."""
        return sum(1 for item in self.compacted if item.chunks_after == 0)

    @property
    def chunks_merged(self) -> int:
        """Total source chunks folded away."""
        return sum(
            item.chunks_before - item.chunks_after for item in self.compacted
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (used by the CLI)."""
        return {
            "partitions_considered": self.partitions_considered,
            "partitions_compacted": self.partitions_compacted,
            "partitions_removed": self.partitions_removed,
            "chunks_merged": self.chunks_merged,
            "compacted": [item.as_dict() for item in self.compacted],
        }


def compact_partitions(
    store: "Store", *, device: str | None = None, min_chunks: int = 2
) -> CompactionReport:
    """Compact every (or one device's) multi-chunk or damaged partition.

    Acquires the store's single-writer lock (flushing any deferred
    torn-tail truncations first) and, per selected partition:

    - drops it when no committed rows remain (crash-window debris);
    - otherwise rewrites the data file as one chunk — canonical append
      order preserved, per-row epsilons preserved — via temp file +
      atomic rename, then rewrites the zone map *exact*.

    Healthy partitions with fewer than ``min_chunks`` chunks are left
    untouched; partitions whose sidecar over-approximates the committed
    chunks (salvaged after a crash) are always repaired regardless of
    chunk count.

    Raises
    ------
    InvalidParameterError
        On ``min_chunks < 1``.
    StoreError
        When another live writer holds the lock, or on an I/O failure.
    """
    if min_chunks < 1:
        raise InvalidParameterError(f"min_chunks must be >= 1, got {min_chunks!r}")
    considered = 0
    compacted: list[PartitionCompaction] = []
    with store._mutex:
        store._ensure_writer()
        for key in sorted(store._zonemaps):
            if device is not None and key.device_id != device:
                continue
            considered += 1
            state = store._states[key]
            zonemap = store._zonemaps[key]
            exact = (
                zonemap.segments == state.segments
                and zonemap.chunks == state.chunks
                and zonemap.points is not None
                and zonemap.total_length is not None
            )
            if exact and state.chunks < min_chunks:
                continue
            stored: list[StoredSegment] = []
            store._scan_partition(key, _EVERY_ROW, stored)
            rows = [(segment.record, segment.epsilon) for segment in stored]
            data_path = store._partition_path(key)
            zonemap_path = (
                store.root
                / DEVICES_DIR
                / encode_device_dir(key.device_id)
                / partition_zonemap_name(key.bucket)
            )
            if not rows:
                # Crash-window partition: a covering sidecar over zero
                # committed rows.  Drop the data file (if any) before the
                # sidecar so an interrupted drop never leaves unindexed
                # data behind.
                data_path.unlink(missing_ok=True)
                zonemap_path.unlink(missing_ok=True)
                del store._zonemaps[key]
                del store._states[key]
                compacted.append(
                    PartitionCompaction(
                        key=key,
                        chunks_before=state.chunks,
                        chunks_after=0,
                        segments=0,
                        bytes_before=state.valid_bytes,
                        bytes_after=0,
                        repaired=not exact,
                    )
                )
                continue
            encoded = encode_chunk_rows(rows)
            temporary = data_path.with_name(data_path.name + ".tmp")
            try:
                temporary.write_bytes(encoded)
                temporary.replace(data_path)
            except OSError as error:
                raise StoreError(
                    f"cannot compact partition {key}: {error}"
                ) from error
            fresh = ZoneMap.of_rows(rows)
            write_zonemap(zonemap_path, fresh)
            compacted.append(
                PartitionCompaction(
                    key=key,
                    chunks_before=state.chunks,
                    chunks_after=1,
                    segments=len(rows),
                    bytes_before=state.valid_bytes,
                    bytes_after=len(encoded),
                    repaired=not exact,
                )
            )
            store._zonemaps[key] = fresh
            state.chunks = 1
            state.segments = len(rows)
            state.valid_bytes = len(encoded)
            state.pending_repair = False
    return CompactionReport(
        partitions_considered=considered, compacted=tuple(compacted)
    )
