"""The typed query surface of the segment store.

One pair of dataclasses — :class:`QuerySpec` in, :class:`QueryResult` out —
is shared by every read path: :meth:`repro.store.Store.query`, the
sliding-window aggregate helpers and the ``repro-traj query`` CLI, so
"trajectory of device D over [t0, t1]" means exactly the same thing at
every call site.

Matching semantics (all predicates optional, conjunctive):

- ``device`` — exact device id;
- ``window=(t0, t1)`` — the segment's closed time span
  ``[min(start.t, end.t), max(start.t, end.t)]`` intersects ``[t0, t1]``;
- ``bbox=(x_min, y_min, x_max, y_max)`` — the segment's endpoint bounding
  box intersects the query box;
- ``epsilon`` — the error bound the segment was produced under equals
  ``epsilon`` exactly;
- ``level`` — index into the store's stored epsilon ladder (0 = finest);
  resolved by the store to the concrete epsilon at that level;
- ``max_deviation`` — a deviation SLA: the store resolves it to the
  *coarsest* stored epsilon not exceeding the bound (fewest segments that
  still honour the SLA); when no stored level qualifies the query matches
  nothing.

``level`` and ``max_deviation`` are store-resolved predicates — mutually
exclusive with each other and with ``epsilon`` — that
:meth:`repro.store.Store.query` rewrites into a concrete ``epsilon``
against its stored ladder before any partition is consulted.

A :class:`QueryResult` carries, besides the matched segments in canonical
order (device id, then time bucket, then append order), the data-skipping
accounting: how many partitions exist, how many were actually read, and
how many stored segments were materialised — ``partitions_scanned /
partitions_total`` is the headline pruning-effectiveness number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import InvalidParameterError
from ..geometry.point import slot_setters
from ..trajectory.piecewise import SegmentRecord
from .layout import ChunkColumns

__all__ = [
    "AggregateResult",
    "QuerySpec",
    "QueryResult",
    "StoredSegment",
    "WindowAggregate",
]


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """One declarative store query (all predicates optional, ANDed)."""

    device: str | None = None
    window: tuple[float, float] | None = None
    bbox: tuple[float, float, float, float] | None = None
    epsilon: float | None = None
    level: int | None = None
    max_deviation: float | None = None

    def __post_init__(self) -> None:
        if self.window is not None:
            try:
                window = tuple(float(value) for value in self.window)
            except (TypeError, ValueError) as error:
                raise InvalidParameterError(
                    f"window must be two finite floats, got {self.window!r}"
                ) from error
            if len(window) != 2 or not all(map(math.isfinite, window)):
                raise InvalidParameterError(
                    f"window must be two finite floats, got {self.window!r}"
                )
            if window[0] > window[1]:
                raise InvalidParameterError(
                    f"window start {window[0]!r} exceeds window end {window[1]!r}"
                )
            object.__setattr__(self, "window", window)
        if self.bbox is not None:
            try:
                bbox = tuple(float(value) for value in self.bbox)
            except (TypeError, ValueError) as error:
                raise InvalidParameterError(
                    f"bbox must be four finite floats (x_min, y_min, x_max, y_max), "
                    f"got {self.bbox!r}"
                ) from error
            if len(bbox) != 4 or not all(map(math.isfinite, bbox)):
                raise InvalidParameterError(
                    f"bbox must be four finite floats (x_min, y_min, x_max, y_max), "
                    f"got {self.bbox!r}"
                )
            if bbox[0] > bbox[2] or bbox[1] > bbox[3]:
                raise InvalidParameterError(f"bbox has inverted bounds: {bbox!r}")
            object.__setattr__(self, "bbox", bbox)
        if self.epsilon is not None:
            try:
                epsilon = float(self.epsilon)
            except (TypeError, ValueError) as error:
                raise InvalidParameterError(
                    f"epsilon must be a positive float, got {self.epsilon!r}"
                ) from error
            if not math.isfinite(epsilon) or epsilon <= 0.0:
                raise InvalidParameterError(
                    f"epsilon must be a positive float, got {self.epsilon!r}"
                )
            object.__setattr__(self, "epsilon", epsilon)
        if self.level is not None:
            if isinstance(self.level, bool) or not isinstance(self.level, int):
                raise InvalidParameterError(
                    f"level must be a non-negative integer, got {self.level!r}"
                )
            if self.level < 0:
                raise InvalidParameterError(
                    f"level must be a non-negative integer, got {self.level!r}"
                )
        if self.max_deviation is not None:
            try:
                max_deviation = float(self.max_deviation)
            except (TypeError, ValueError) as error:
                raise InvalidParameterError(
                    f"max_deviation must be a positive float, "
                    f"got {self.max_deviation!r}"
                ) from error
            if not math.isfinite(max_deviation) or max_deviation <= 0.0:
                raise InvalidParameterError(
                    f"max_deviation must be a positive float, "
                    f"got {self.max_deviation!r}"
                )
            object.__setattr__(self, "max_deviation", max_deviation)
        selectors = [
            name
            for name, value in (
                ("epsilon", self.epsilon),
                ("level", self.level),
                ("max_deviation", self.max_deviation),
            )
            if value is not None
        ]
        if len(selectors) > 1:
            raise InvalidParameterError(
                f"epsilon, level and max_deviation are mutually exclusive "
                f"resolution selectors; got {', '.join(selectors)}"
            )

    @property
    def unconstrained(self) -> bool:
        """True when the spec matches every stored segment."""
        return (
            self.device is None
            and self.window is None
            and self.bbox is None
            and self.epsilon is None
            and self.level is None
            and self.max_deviation is None
        )

    def _require_resolved(self) -> None:
        if self.level is not None or self.max_deviation is not None:
            raise InvalidParameterError(
                "level/max_deviation are store-resolved selectors; resolve "
                "the spec against the store's epsilon ladder before matching"
            )

    def matches(self, device_id: str, epsilon: float, record: SegmentRecord) -> bool:
        """Whether one stored segment satisfies every predicate."""
        self._require_resolved()
        if self.device is not None and device_id != self.device:
            return False
        if self.epsilon is not None and epsilon != self.epsilon:
            return False
        if self.window is not None:
            t_low = min(record.start.t, record.end.t)
            t_high = max(record.start.t, record.end.t)
            if t_low > self.window[1] or t_high < self.window[0]:
                return False
        if self.bbox is not None:
            x_low = min(record.start.x, record.end.x)
            x_high = max(record.start.x, record.end.x)
            y_low = min(record.start.y, record.end.y)
            y_high = max(record.start.y, record.end.y)
            if (
                x_low > self.bbox[2]
                or x_high < self.bbox[0]
                or y_low > self.bbox[3]
                or y_high < self.bbox[1]
            ):
                return False
        return True

    def mask(self, device_id: str, columns: ChunkColumns) -> np.ndarray:
        """:meth:`matches` over every row of one chunk, as a boolean array.

        Each predicate is one vector comparison over the chunk's columns,
        with the same closed edges as :meth:`matches`; the two agree row
        for row on the finite coordinates the store accepts.
        """
        self._require_resolved()
        if self.device is not None and device_id != self.device:
            return np.zeros(columns.rows, dtype=bool)
        # Rows of the (6, n) block: start x/y/t, then end x/y/t.
        coords = columns.coords
        tests: list[np.ndarray] = []
        if self.epsilon is not None:
            tests.append(columns.epsilon == self.epsilon)
        if self.window is not None:
            tests.append(np.minimum(coords[2], coords[5]) <= self.window[1])
            tests.append(np.maximum(coords[2], coords[5]) >= self.window[0])
        if self.bbox is not None:
            tests.append(np.minimum(coords[0], coords[3]) <= self.bbox[2])
            tests.append(np.maximum(coords[0], coords[3]) >= self.bbox[0])
            tests.append(np.minimum(coords[1], coords[4]) <= self.bbox[3])
            tests.append(np.maximum(coords[1], coords[4]) >= self.bbox[1])
        if not tests:
            return np.ones(columns.rows, dtype=bool)
        keep = tests[0]
        for test in tests[1:]:
            keep &= test
        return keep

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (for the CLI's JSON output)."""
        return {
            "device": self.device,
            "window": list(self.window) if self.window is not None else None,
            "bbox": list(self.bbox) if self.bbox is not None else None,
            "epsilon": self.epsilon,
            "level": self.level,
            "max_deviation": self.max_deviation,
        }


@dataclass(frozen=True, slots=True, init=False)
class StoredSegment:
    """One segment as the store returns it: record plus provenance."""

    device_id: str
    epsilon: float
    record: SegmentRecord

    def __init__(self, device_id: str, epsilon: float, record: SegmentRecord) -> None:
        # Once per matched row of every query (see slot_setters).
        _set_device_id(self, device_id)
        _set_epsilon(self, epsilon)
        _set_record(self, record)

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable view (used by the CLI and in tests for
        byte-identity comparisons between pruned and full scans)."""
        return {
            "device": self.device_id,
            "epsilon": self.epsilon,
            "segment": self.record.to_dict(),
        }


_set_device_id, _set_epsilon, _set_record = slot_setters(
    StoredSegment, "device_id", "epsilon", "record"
)


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Matched segments plus the data-skipping accounting of one query."""

    spec: QuerySpec
    segments: tuple[StoredSegment, ...]
    partitions_total: int
    partitions_scanned: int
    segments_scanned: int
    full_scan: bool = False
    """Whether zone-map pruning was bypassed (``Store.query(full_scan=True))``."""

    @property
    def partitions_skipped(self) -> int:
        """Partitions the zone maps let the query avoid reading."""
        return self.partitions_total - self.partitions_scanned

    @property
    def scan_fraction(self) -> float:
        """``partitions_scanned / partitions_total`` (0.0 for an empty store)."""
        if self.partitions_total == 0:
            return 0.0
        return self.partitions_scanned / self.partitions_total

    def __len__(self) -> int:
        return len(self.segments)

    def devices(self) -> list[str]:
        """Sorted distinct device ids present in the matched segments."""
        return sorted({stored.device_id for stored in self.segments})

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (for the CLI's JSON output)."""
        return {
            "spec": self.spec.as_dict(),
            "matched": len(self.segments),
            "partitions_total": self.partitions_total,
            "partitions_scanned": self.partitions_scanned,
            "partitions_skipped": self.partitions_skipped,
            "scan_fraction": self.scan_fraction,
            "segments_scanned": self.segments_scanned,
            "full_scan": self.full_scan,
            "segments": [stored.to_dict() for stored in self.segments],
        }


@dataclass(frozen=True, slots=True)
class WindowAggregate:
    """Aggregates of one sliding window over stored segments.

    A segment contributes to every window its time span intersects, so
    adjacent windows overlap exactly as a sliding computation should.
    """

    t_start: float
    t_end: float
    segments: int = 0
    devices: int = 0
    points: int = 0
    total_length: float = 0.0
    device_ids: tuple[str, ...] = field(default=(), repr=False)

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (for the CLI's JSON output)."""
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "segments": self.segments,
            "devices": self.devices,
            "points": self.points,
            "total_length": self.total_length,
        }


@dataclass(frozen=True, slots=True)
class AggregateResult:
    """Sliding-window aggregates plus the pushdown/scan accounting.

    ``partitions_pushdown`` counts partitions answered from their zone-map
    sidecar alone — no data file read; ``partitions_scanned`` counts those
    whose rows were actually decoded.  When every admitted partition is
    served by pushdown, ``scan_fraction`` is exactly 0.0: the aggregate
    cost metadata I/O only.
    """

    spec: QuerySpec
    width: float
    step: float
    windows: tuple[WindowAggregate, ...]
    partitions_total: int
    partitions_scanned: int
    partitions_pushdown: int
    segments_scanned: int
    pushdown: bool = True
    """Whether sidecar pushdown was enabled (``pushdown=False`` forces the
    row-scan path; the property tests pin both paths to equal answers)."""

    @property
    def partitions_skipped(self) -> int:
        """Partitions neither scanned nor pushed down (pruned outright)."""
        return self.partitions_total - self.partitions_scanned - self.partitions_pushdown

    @property
    def scan_fraction(self) -> float:
        """``partitions_scanned / partitions_total`` (0.0 for an empty store)."""
        if self.partitions_total == 0:
            return 0.0
        return self.partitions_scanned / self.partitions_total

    def __len__(self) -> int:
        return len(self.windows)

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (for the CLI's JSON output)."""
        return {
            "spec": self.spec.as_dict(),
            "width": self.width,
            "step": self.step,
            "windows": [window.as_dict() for window in self.windows],
            "partitions_total": self.partitions_total,
            "partitions_scanned": self.partitions_scanned,
            "partitions_pushdown": self.partitions_pushdown,
            "partitions_skipped": self.partitions_skipped,
            "scan_fraction": self.scan_fraction,
            "segments_scanned": self.segments_scanned,
            "pushdown": self.pushdown,
        }
