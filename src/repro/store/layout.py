"""On-disk layout of the segment store: manifest, partitions, zone maps.

A store is a directory tree::

    store-root/
      MANIFEST.json            {"format": 1, "kind": "segment-store",
                                "time_bucket": 3600.0}
      devices/
        d-<encoded-device>/    one directory per device
          b<bucket>.seg        columnar append-only segment chunks
          b<bucket>.zm.json    zone map sidecar for that partition

Partitioning is by ``(device, time bucket)``: a segment belongs to the
bucket ``floor(segment.start.t / time_bucket)`` of its device.  Each
``.seg`` file is append-only — every :meth:`repro.store.Store.append`
call adds one self-describing *chunk* holding its segments column by
column (start/end coordinates, index ranges, patch flags, epsilon), so a
reader maps each chunk as zero-copy numpy column views
(:class:`ChunkColumns`), filters rows with vector predicates over them
and builds Python objects only for the rows it keeps.  Chunks are
little-endian and fully determined by their payload: writing the same
segments always produces the same bytes (the store sits inside the
RPA003 determinism scope).

The zone map sidecar carries the partition's pruning metadata: the exact
time range and bounding box of every segment in the file, the segment and
chunk counts, the sorted set of epsilons present, and (format ≥ this
build) the partition-level aggregates — total point count and total
segment length — that let fully-covered window aggregates be answered
from the sidecar alone.  Sidecars are rewritten atomically (temp file +
rename) *before* the data append, so a crash between the two writes
leaves zone-map bounds that over-approximate the data — queries may scan
a partition needlessly, but can never skip one wrongly.  Zone maps are
therefore always *sound* for data skipping.

A crash mid-append can also leave a *torn tail*: a final chunk whose
header or column payload never fully reached the disk.
:func:`decode_columns` raises :class:`TornChunkError` there — a
:class:`~repro.exceptions.StoreError` carrying the byte offset where the
committed prefix ends — and :func:`salvage_columns` /
:func:`scan_partition_file` use that offset to recover the valid prefix
instead of poisoning the whole partition.  :func:`decode_chunks` and
:func:`salvage_chunks` are their materialise-every-row forms.

Device directory names are percent-encoded (prefixed ``d-`` so no device
id can collide with a path component like ``..``); bucket indices may be
negative (``b-3.seg`` holds timestamps below zero).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence
from urllib.parse import quote, unquote

import numpy as np

from ..exceptions import StoreError
from ..geometry.point import Point
from ..trajectory.piecewise import SegmentRecord

__all__ = [
    "CHUNK_VERSION",
    "ChunkColumns",
    "LOCK_NAME",
    "MANIFEST_NAME",
    "STORE_FORMAT",
    "STORE_KIND",
    "PartitionKey",
    "PartitionScan",
    "TornChunkError",
    "ZoneMap",
    "bucket_of",
    "bucket_of_data_name",
    "decode_chunks",
    "decode_columns",
    "decode_device_dir",
    "encode_chunk",
    "encode_chunk_rows",
    "encode_device_dir",
    "load_manifest",
    "partition_data_name",
    "partition_zonemap_name",
    "read_zonemap",
    "salvage_chunks",
    "salvage_columns",
    "scan_partition_file",
    "write_manifest",
    "write_zonemap",
]

STORE_FORMAT = 1
"""Version stamp of the store layout, bumped on incompatible changes."""

STORE_KIND = "segment-store"
"""Manifest discriminator of a segment-store directory."""

MANIFEST_NAME = "MANIFEST.json"
DEVICES_DIR = "devices"

LOCK_NAME = "LOCK"
"""File name of the store's single-writer lock (see
:mod:`repro.store.locking`)."""

CHUNK_VERSION = 1
"""Version stamp of the columnar chunk encoding."""

_MAGIC = b"RSEG"
_HEADER = struct.Struct("<4sII")  # magic, chunk version, segment count

_DEVICE_PREFIX = "d-"
_FLAG_PATCHED_START = 1
_FLAG_PATCHED_END = 2


# --------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------- #
def write_manifest(root: Path, *, time_bucket: float) -> None:
    """Write the store manifest atomically (temp file + rename)."""
    payload = {
        "format": STORE_FORMAT,
        "kind": STORE_KIND,
        "time_bucket": time_bucket,
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    target = root / MANIFEST_NAME
    temporary = target.with_name(target.name + ".tmp")
    temporary.write_text(text)
    temporary.replace(target)


def load_manifest(root: Path) -> dict[str, object]:
    """Load and validate the manifest of an existing store directory.

    Raises
    ------
    StoreError
        When the manifest is unreadable, not valid JSON, not a
        segment-store manifest, or of an incompatible format version.
    """
    path = root / MANIFEST_NAME
    try:
        payload = json.loads(path.read_text())
    except OSError as error:
        raise StoreError(f"cannot read store manifest {str(path)!r}: {error}") from error
    except ValueError as error:
        raise StoreError(
            f"store manifest {str(path)!r} is not valid JSON: {error}"
        ) from error
    if not isinstance(payload, dict) or payload.get("kind") != STORE_KIND:
        raise StoreError(
            f"{str(root)!r} is not a segment store (manifest kind "
            f"{payload.get('kind')!r})" if isinstance(payload, dict)
            else f"store manifest {str(path)!r} must be a JSON object"
        )
    if payload.get("format") != STORE_FORMAT:
        raise StoreError(
            f"unsupported store format {payload.get('format')!r}; "
            f"this build reads format {STORE_FORMAT}"
        )
    try:
        time_bucket = float(payload["time_bucket"])  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError) as error:
        raise StoreError(f"malformed store manifest {str(path)!r}: {error!r}") from error
    if not (math.isfinite(time_bucket) and time_bucket > 0.0):
        raise StoreError(
            f"store manifest {str(path)!r} has invalid time_bucket {time_bucket!r}"
        )
    return payload


# --------------------------------------------------------------------- #
# Partition naming
# --------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True, order=True)
class PartitionKey:
    """Identity of one store partition: ``(device, time bucket)``."""

    device_id: str
    bucket: int


def bucket_of(t: float, time_bucket: float) -> int:
    """Time bucket index a segment starting at ``t`` belongs to.

    Computed with float floor division rather than ``floor(t /
    time_bucket)``: the plain quotient can underflow to ``-0.0`` for tiny
    negative ``t`` (e.g. ``-5e-324 / 100.0``), which would round a
    below-zero timestamp *up* into bucket 0 and break the canonical
    (device, bucket, append) scan order.
    """
    return int(t // time_bucket)


def encode_device_dir(device_id: str) -> str:
    """Filesystem-safe directory name of a device id (reversible)."""
    return _DEVICE_PREFIX + quote(device_id, safe="")


def decode_device_dir(name: str) -> str:
    """Inverse of :func:`encode_device_dir`.

    Raises
    ------
    StoreError
        When ``name`` is not an encoded device directory name.
    """
    if not name.startswith(_DEVICE_PREFIX):
        raise StoreError(f"not an encoded device directory name: {name!r}")
    return unquote(name[len(_DEVICE_PREFIX):])


def partition_data_name(bucket: int) -> str:
    """File name of a partition's columnar segment log."""
    return f"b{bucket}.seg"


def partition_zonemap_name(bucket: int) -> str:
    """File name of a partition's zone map sidecar."""
    return f"b{bucket}.zm.json"


def bucket_of_data_name(name: str) -> int | None:
    """Bucket index of a ``b<bucket>.seg`` file name (None when not one)."""
    if not (name.startswith("b") and name.endswith(".seg")):
        return None
    try:
        return int(name[1:-4])
    except ValueError:
        return None


# --------------------------------------------------------------------- #
# Zone maps
# --------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class ZoneMap:
    """Pruning metadata of one partition.

    The bounds are *covering*: every segment in the partition's data file
    lies inside ``[t_min, t_max]`` × ``[x_min, x_max]`` × ``[y_min, y_max]``
    and carries one of the listed epsilons.  A query may skip the partition
    whenever its predicate cannot intersect these bounds.

    ``points`` and ``total_length`` are partition-level aggregates (total
    stored point count and summed segment length) that let a window
    aggregate fully covering the partition be answered from the sidecar
    alone.  They are ``None`` when the sidecar predates them (legacy
    stores), in which case aggregate pushdown falls back to scanning.
    """

    t_min: float
    t_max: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    segments: int
    chunks: int
    epsilons: tuple[float, ...]
    points: int | None = None
    total_length: float | None = None

    @classmethod
    def of_rows(cls, rows: Sequence[tuple[SegmentRecord, float]]) -> "ZoneMap":
        """Exact one-chunk zone map of ``(record, epsilon)`` rows.

        Serves both writers of a sidecar: an append (one batch, every row
        under the batch's epsilon) and compaction (a whole partition
        rewritten as one chunk, per-row epsilons preserved).
        """
        if not rows:
            raise StoreError("cannot build a zone map over no segments")
        ts: list[float] = []
        xs: list[float] = []
        ys: list[float] = []
        for record, _ in rows:
            ts.extend((record.start.t, record.end.t))
            xs.extend((record.start.x, record.end.x))
            ys.extend((record.start.y, record.end.y))
        return cls(
            t_min=min(ts),
            t_max=max(ts),
            x_min=min(xs),
            x_max=max(xs),
            y_min=min(ys),
            y_max=max(ys),
            segments=len(rows),
            chunks=1,
            epsilons=tuple(sorted({epsilon for _, epsilon in rows})),
            points=sum(record.point_count for record, _ in rows),
            total_length=sum(record.length for record, _ in rows),
        )

    def merge(self, other: "ZoneMap") -> "ZoneMap":
        """Covering union of two zone maps (append = merge with the batch)."""
        return ZoneMap(
            t_min=min(self.t_min, other.t_min),
            t_max=max(self.t_max, other.t_max),
            x_min=min(self.x_min, other.x_min),
            x_max=max(self.x_max, other.x_max),
            y_min=min(self.y_min, other.y_min),
            y_max=max(self.y_max, other.y_max),
            segments=self.segments + other.segments,
            chunks=self.chunks + other.chunks,
            epsilons=tuple(sorted(set(self.epsilons) | set(other.epsilons))),
            points=(
                self.points + other.points
                if self.points is not None and other.points is not None
                else None
            ),
            total_length=(
                self.total_length + other.total_length
                if self.total_length is not None and other.total_length is not None
                else None
            ),
        )

    # ------------------------------------------------------------------ #
    # Pruning predicates (True = the partition *may* contain matches)
    # ------------------------------------------------------------------ #
    def may_intersect_window(self, window: tuple[float, float]) -> bool:
        """Whether any contained segment's time span can meet ``window``."""
        t0, t1 = window
        return self.t_min <= t1 and self.t_max >= t0

    def may_intersect_bbox(self, bbox: tuple[float, float, float, float]) -> bool:
        """Whether any contained segment's bounding box can meet ``bbox``."""
        x_min, y_min, x_max, y_max = bbox
        return (
            self.x_min <= x_max
            and self.x_max >= x_min
            and self.y_min <= y_max
            and self.y_max >= y_min
        )

    def may_contain_epsilon(self, epsilon: float) -> bool:
        """Whether any contained segment was produced under ``epsilon``."""
        return epsilon in self.epsilons

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable view (sorted keys make the bytes canonical)."""
        return {
            "format": STORE_FORMAT,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "x_min": self.x_min,
            "x_max": self.x_max,
            "y_min": self.y_min,
            "y_max": self.y_max,
            "segments": self.segments,
            "chunks": self.chunks,
            "epsilons": list(self.epsilons),
            "points": self.points,
            "total_length": self.total_length,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ZoneMap":
        """Rebuild a zone map from :meth:`to_dict` output.

        ``points``/``total_length`` default to ``None`` so sidecars written
        before the aggregate fields existed keep loading (and simply opt
        their partition out of aggregate pushdown).
        """
        points = payload.get("points")
        total_length = payload.get("total_length")
        try:
            return cls(
                t_min=float(payload["t_min"]),  # type: ignore[arg-type]
                t_max=float(payload["t_max"]),  # type: ignore[arg-type]
                x_min=float(payload["x_min"]),  # type: ignore[arg-type]
                x_max=float(payload["x_max"]),  # type: ignore[arg-type]
                y_min=float(payload["y_min"]),  # type: ignore[arg-type]
                y_max=float(payload["y_max"]),  # type: ignore[arg-type]
                segments=int(payload["segments"]),  # type: ignore[arg-type]
                chunks=int(payload["chunks"]),  # type: ignore[arg-type]
                epsilons=tuple(
                    float(value) for value in payload["epsilons"]  # type: ignore[union-attr]
                ),
                points=int(points) if points is not None else None,  # type: ignore[arg-type]
                total_length=(
                    float(total_length) if total_length is not None else None  # type: ignore[arg-type]
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(f"malformed zone map payload: {error!r}") from error


def write_zonemap(path: Path, zonemap: ZoneMap) -> None:
    """Write a zone map sidecar atomically (temp file + rename)."""
    try:
        text = json.dumps(zonemap.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as error:
        raise StoreError(f"zone map is not strict-JSON serialisable: {error}") from error
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_text(text)
    temporary.replace(path)


def read_zonemap(path: Path) -> ZoneMap:
    """Load a zone map sidecar.

    Raises
    ------
    StoreError
        When the sidecar is unreadable or malformed.
    """
    try:
        payload = json.loads(path.read_text())
    except OSError as error:
        raise StoreError(f"cannot read zone map {str(path)!r}: {error}") from error
    except ValueError as error:
        raise StoreError(f"zone map {str(path)!r} is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise StoreError(f"zone map {str(path)!r} must be a JSON object")
    return ZoneMap.from_dict(payload)


# --------------------------------------------------------------------- #
# Columnar chunk codec
# --------------------------------------------------------------------- #
class TornChunkError(StoreError):
    """A chunk whose bytes never fully reached the disk (crash mid-append).

    ``offset`` is the byte offset where the last fully-committed chunk
    ends — everything before it decodes cleanly, everything from it on is
    the torn (or corrupt) tail.  Recovery truncates the file to ``offset``.

    The keyword parameters carry defaults so ``cls(message)`` revival
    across process boundaries works (RPA005); a revived instance keeps
    its message but not the structured offset.
    """

    def __init__(
        self, message: str, *, offset: int = 0, reason: str = "torn chunk"
    ) -> None:
        super().__init__(message)
        self.offset = offset
        self.reason = reason


def encode_chunk_rows(rows: list[tuple[SegmentRecord, float]]) -> bytes:
    """Encode ``(record, epsilon)`` rows as one self-describing chunk.

    Layout (all little-endian): the header (magic, version, count), six
    float64 columns (start x/y/t, end x/y/t), four int64 columns (first,
    last, point count, covered last index), one uint8 flag column (bit 0 =
    patched start, bit 1 = patched end) and a float64 epsilon column.  The
    epsilon column is per-row, so compaction can rewrite chunks appended
    under different bounds into one chunk without losing provenance.
    """
    n = len(rows)
    start_x = np.fromiter((s.start.x for s, _ in rows), dtype="<f8", count=n)
    start_y = np.fromiter((s.start.y for s, _ in rows), dtype="<f8", count=n)
    start_t = np.fromiter((s.start.t for s, _ in rows), dtype="<f8", count=n)
    end_x = np.fromiter((s.end.x for s, _ in rows), dtype="<f8", count=n)
    end_y = np.fromiter((s.end.y for s, _ in rows), dtype="<f8", count=n)
    end_t = np.fromiter((s.end.t for s, _ in rows), dtype="<f8", count=n)
    first = np.fromiter((s.first_index for s, _ in rows), dtype="<i8", count=n)
    last = np.fromiter((s.last_index for s, _ in rows), dtype="<i8", count=n)
    count = np.fromiter((s.point_count for s, _ in rows), dtype="<i8", count=n)
    covered = np.fromiter((s.covered_last_index for s, _ in rows), dtype="<i8", count=n)
    flags = np.fromiter(
        (
            (_FLAG_PATCHED_START if s.patched_start else 0)
            | (_FLAG_PATCHED_END if s.patched_end else 0)
            for s, _ in rows
        ),
        dtype="u1",
        count=n,
    )
    eps = np.fromiter((epsilon for _, epsilon in rows), dtype="<f8", count=n)
    parts = [
        _HEADER.pack(_MAGIC, CHUNK_VERSION, n),
        start_x.tobytes(), start_y.tobytes(), start_t.tobytes(),
        end_x.tobytes(), end_y.tobytes(), end_t.tobytes(),
        first.tobytes(), last.tobytes(), count.tobytes(), covered.tobytes(),
        flags.tobytes(),
        eps.tobytes(),
    ]
    return b"".join(parts)


def encode_chunk(segments: list[SegmentRecord], epsilon: float) -> bytes:
    """Encode one append batch (uniform epsilon) as a columnar chunk."""
    return encode_chunk_rows([(segment, epsilon) for segment in segments])


def _chunk_payload_size(n: int) -> int:
    """Byte length of a chunk's column payload (header excluded)."""
    return n * (6 * 8 + 4 * 8 + 1 + 8)


def _chunk_extent(
    data: bytes, offset: int, total: int, source: str
) -> tuple[int, int]:
    """Validate one chunk header at ``offset``; return ``(row count, end)``.

    Raises :class:`TornChunkError` (offset = the chunk's start, i.e. the
    end of the committed prefix) on a truncated header/payload or a bad
    magic, and a plain :class:`StoreError` on an unsupported chunk version
    — a version from the future is valid data this build must not salvage
    away.
    """
    if offset + _HEADER.size > total:
        raise TornChunkError(
            f"truncated chunk header in {source} at byte {offset}",
            offset=offset,
            reason="truncated chunk header",
        )
    magic, version, n = _HEADER.unpack_from(data, offset)
    if magic != _MAGIC:
        raise TornChunkError(
            f"bad chunk magic in {source} at byte {offset}",
            offset=offset,
            reason="bad chunk magic",
        )
    if version != CHUNK_VERSION:
        raise StoreError(
            f"unsupported chunk version {version} in {source}; "
            f"this build reads version {CHUNK_VERSION}"
        )
    end = offset + _HEADER.size + _chunk_payload_size(n)
    if end > total:
        raise TornChunkError(
            f"truncated chunk payload in {source} at byte {offset + _HEADER.size}",
            offset=offset,
            reason="truncated chunk payload",
        )
    return n, end


@dataclass(frozen=True, slots=True)
class ChunkColumns:
    """Zero-copy numpy views of one committed chunk's columns.

    ``coords`` is the ``(6, n)`` float64 block (start x/y/t, end x/y/t),
    ``indices`` the ``(4, n)`` int64 block (first, last, point count,
    covered last index); ``flags`` and ``epsilon`` are the per-row patch
    flags and error bounds.  The views borrow the partition bytes they
    were decoded from.  Predicates run over the columns; Python objects
    are built only by :meth:`records` / :meth:`epsilons`, for the rows a
    caller selects.
    """

    coords: np.ndarray
    indices: np.ndarray
    flags: np.ndarray
    epsilon: np.ndarray

    @property
    def rows(self) -> int:
        """Number of rows in the chunk."""
        return len(self.flags)

    def records(self, selected: np.ndarray | None = None) -> list[SegmentRecord]:
        """The ``selected`` rows (every row when None) as records, in order."""
        coords, indices, flags = self.coords, self.indices, self.flags
        if selected is not None:
            coords = coords.take(selected, axis=1)
            indices = indices.take(selected, axis=1)
            flags = flags.take(selected)
        start_x, start_y, start_t, end_x, end_y, end_t = coords.tolist()
        first, last, count, covered = indices.tolist()
        return [
            SegmentRecord(
                Point(sx, sy, st), Point(ex, ey, et), i, j, k, m,
                bool(flag & _FLAG_PATCHED_START), bool(flag & _FLAG_PATCHED_END),
            )
            for sx, sy, st, ex, ey, et, i, j, k, m, flag in zip(
                start_x, start_y, start_t, end_x, end_y, end_t,
                first, last, count, covered, flags.tolist(),
            )
        ]

    def epsilons(self, selected: np.ndarray | None = None) -> list[float]:
        """The ``selected`` rows' epsilons (every row when None), in order."""
        column = self.epsilon if selected is None else self.epsilon.take(selected)
        values: list[float] = column.tolist()
        return values

    def rows_with_epsilon(self) -> list[tuple[SegmentRecord, float]]:
        """Every row as a ``(record, epsilon)`` pair, in append order."""
        return list(zip(self.records(), self.epsilons()))


def decode_columns(data: bytes, *, source: str = "<bytes>") -> Iterator[ChunkColumns]:
    """Map a partition file's chunks as column views, in file order.

    Raises
    ------
    TornChunkError
        On a bad magic or a truncated chunk (e.g. a crash mid-append); the
        error carries the byte offset of the committed prefix and
        ``source`` names the file.
    StoreError
        On an unsupported chunk version.
    """
    offset = 0
    total = len(data)
    while offset < total:
        n, end = _chunk_extent(data, offset, total, source)
        cursor = offset + _HEADER.size
        coords = np.frombuffer(data, dtype="<f8", count=6 * n, offset=cursor)
        cursor += 6 * n * 8
        indices = np.frombuffer(data, dtype="<i8", count=4 * n, offset=cursor)
        cursor += 4 * n * 8
        flags = np.frombuffer(data, dtype="u1", count=n, offset=cursor)
        epsilon = np.frombuffer(data, dtype="<f8", count=n, offset=cursor + n)
        offset = end
        yield ChunkColumns(coords.reshape(6, n), indices.reshape(4, n), flags, epsilon)


def salvage_columns(
    data: bytes, *, source: str = "<bytes>"
) -> tuple[list[ChunkColumns], TornChunkError | None]:
    """Column views of the valid chunk prefix of a (possibly torn) file.

    Returns the fully-committed chunks in file order plus the
    :class:`TornChunkError` describing the torn tail (``None`` when the
    file decodes cleanly).  Unlike :func:`decode_columns` this never lets
    a crash-torn tail poison the readable prefix; an unsupported chunk
    *version* still raises, because future-format data must not be
    silently dropped.
    """
    chunks: list[ChunkColumns] = []
    try:
        for columns in decode_columns(data, source=source):
            chunks.append(columns)
    except TornChunkError as error:
        return chunks, error
    return chunks, None


def decode_chunks(data: bytes, *, source: str = "<bytes>") -> Iterator[
    list[tuple[SegmentRecord, float]]
]:
    """Decode a partition file into per-chunk ``(record, epsilon)`` rows.

    The materialise-every-row form of :func:`decode_columns`, with the
    same errors.  Chunks come back in file order, rows in append order —
    the partition's canonical scan order.
    """
    for columns in decode_columns(data, source=source):
        yield columns.rows_with_epsilon()


def salvage_chunks(
    data: bytes, *, source: str = "<bytes>"
) -> tuple[list[list[tuple[SegmentRecord, float]]], TornChunkError | None]:
    """The materialise-every-row form of :func:`salvage_columns`."""
    chunks, torn = salvage_columns(data, source=source)
    return [columns.rows_with_epsilon() for columns in chunks], torn


@dataclass(frozen=True, slots=True)
class PartitionScan:
    """Result of a header-only integrity walk over one partition file.

    ``valid_bytes`` is the length of the committed chunk prefix; it equals
    ``total_bytes`` when the file is intact.  ``chunks``/``segments``
    count only the committed prefix.  ``torn`` carries the
    :class:`TornChunkError` describing the tail when the file is damaged.
    """

    path: Path
    total_bytes: int
    valid_bytes: int
    chunks: int
    segments: int
    torn: TornChunkError | None

    @property
    def damaged(self) -> bool:
        """Whether the file carries a torn tail needing repair."""
        return self.torn is not None


def scan_partition_file(path: Path) -> PartitionScan:
    """Walk a partition file's chunk headers without decoding payloads.

    This is the recovery scan :class:`repro.store.Store` runs on open: it
    validates every chunk header, sums committed chunk/segment counts and
    locates the torn tail (if any) — all without materialising a single
    row, so opening a large intact store stays cheap.

    Raises
    ------
    StoreError
        When the file cannot be read, or a committed-prefix chunk carries
        an unsupported version (future data must not be repaired away).
    """
    source = str(path)
    chunks = 0
    segments = 0
    torn: TornChunkError | None = None
    try:
        with open(path, "rb") as handle:
            total = handle.seek(0, 2)
            offset = 0
            handle.seek(0)
            while offset < total:
                header = handle.read(_HEADER.size)
                try:
                    n, end = _chunk_extent(header, 0, total - offset, source)
                except TornChunkError as error:
                    torn = TornChunkError(
                        f"{error.reason} in {source} at byte {offset + error.offset}",
                        offset=offset + error.offset,
                        reason=error.reason,
                    )
                    break
                chunks += 1
                segments += n
                offset += end
                handle.seek(offset)
    except OSError as error:
        raise StoreError(
            f"cannot read partition file {str(path)!r}: {error}"
        ) from error
    return PartitionScan(
        path=path,
        total_bytes=total,
        valid_bytes=torn.offset if torn is not None else total,
        chunks=chunks,
        segments=segments,
        torn=torn,
    )
