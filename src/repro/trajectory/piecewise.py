"""Piecewise-line representations of compressed trajectories.

A line-simplification algorithm turns a trajectory with ``n + 1`` points into
a sequence of continuous directed line segments (paper Section 3.1).  Each
:class:`SegmentRecord` remembers, besides its geometric endpoints, the range
of original point indices it represents, so that error metrics and the Z(k)
distribution of Exp-2.3 can be computed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Iterator, Sequence

from ..exceptions import InvalidTrajectoryError, SimplificationError
from ..geometry.point import Point, encode_point, slot_setters

__all__ = ["SegmentRecord", "SegmentCascadeMixin", "PiecewiseRepresentation"]


@dataclass(frozen=True, slots=True, init=False)
class SegmentRecord:
    """One directed line segment of a piecewise representation.

    Attributes
    ----------
    start, end:
        Geometric endpoints.  These are original trajectory points except for
        OPERB-A patch points, which are synthetic.
    first_index, last_index:
        Indices (inclusive) of the original points whose range this segment
        represents.
    point_count:
        Number of original data points credited to this segment; shared
        endpoints are counted for both neighbouring segments, as in the
        paper's Exp-2.3.
    covered_last_index:
        Last original index error-bounded by this segment.  Normally equal to
        ``last_index``; larger when OPERB's optimisation 5 absorbed trailing
        points into the segment.
    patched_start, patched_end:
        Whether the corresponding endpoint is an interpolated patch point.
    """

    start: Point
    end: Point
    first_index: int
    last_index: int
    point_count: int = -1
    covered_last_index: int = -1
    patched_start: bool = False
    patched_end: bool = False

    def __init__(
        self, start: Point, end: Point, first_index: int, last_index: int,
        point_count: int = -1, covered_last_index: int = -1,
        patched_start: bool = False, patched_end: bool = False,
    ) -> None:
        # Once per emitted segment (see slot_setters); negative counts mean
        # "derive the default".
        _set_start(self, start)
        _set_end(self, end)
        _set_first_index(self, first_index)
        _set_last_index(self, last_index)
        _set_point_count(self, last_index - first_index + 1 if point_count < 0 else point_count)
        _set_covered_last_index(self, last_index if covered_last_index < 0 else covered_last_index)
        _set_patched_start(self, patched_start)
        _set_patched_end(self, patched_end)

    @classmethod
    def from_indices(cls, trajectory, first_index: int, last_index: int) -> "SegmentRecord":
        """Segment joining two original points of ``trajectory`` by index."""
        return cls(
            start=trajectory[first_index],
            end=trajectory[last_index],
            first_index=first_index,
            last_index=last_index,
        )

    def to_dict(self) -> dict:
        """JSON-serialisable view of this record (see :meth:`from_dict`).

        Points are flattened to ``[x, y, t]`` triples; everything else is a
        plain int/bool.  Used by the streaming checkpoint protocol, so the
        representation must round-trip exactly (floats survive JSON via
        ``repr`` round-tripping).
        """
        return {
            "start": encode_point(self.start),
            "end": encode_point(self.end),
            "first_index": self.first_index,
            "last_index": self.last_index,
            "point_count": self.point_count,
            "covered_last_index": self.covered_last_index,
            "patched_start": self.patched_start,
            "patched_end": self.patched_end,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SegmentRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            start=Point(*payload["start"]),
            end=Point(*payload["end"]),
            first_index=int(payload["first_index"]),
            last_index=int(payload["last_index"]),
            point_count=int(payload["point_count"]),
            covered_last_index=int(payload["covered_last_index"]),
            patched_start=bool(payload["patched_start"]),
            patched_end=bool(payload["patched_end"]),
        )

    @property
    def is_anomalous(self) -> bool:
        """True when the segment represents only its own two endpoints."""
        return self.point_count <= 2

    @property
    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.start.distance_to(self.end)

    def covers_index(self, index: int) -> bool:
        """Whether original point ``index`` is represented by this segment."""
        return self.first_index <= index <= self.covered_last_index

    # The two endpoint copies run once per OPERB-A patch, so they call the
    # constructor directly instead of the slower ``dataclasses.replace``.
    def with_start(self, start: Point, *, patched: bool = True) -> "SegmentRecord":
        """Copy with a replaced (typically patched) start point."""
        return SegmentRecord(
            start, self.end, self.first_index, self.last_index,
            self.point_count, self.covered_last_index, patched, self.patched_end,
        )

    def with_end(self, end: Point, *, patched: bool = True) -> "SegmentRecord":
        """Copy with a replaced (typically patched) end point."""
        return SegmentRecord(
            self.start, end, self.first_index, self.last_index,
            self.point_count, self.covered_last_index, self.patched_start, patched,
        )

    def with_point_count(self, point_count: int) -> "SegmentRecord":
        """Copy with an adjusted credited point count."""
        return replace(self, point_count=point_count)

    def with_covered_last_index(self, covered_last_index: int) -> "SegmentRecord":
        """Copy acknowledging absorbed points up to ``covered_last_index``."""
        return replace(self, covered_last_index=covered_last_index)


(_set_start, _set_end, _set_first_index, _set_last_index, _set_point_count,
 _set_covered_last_index, _set_patched_start, _set_patched_end) = slot_setters(
    SegmentRecord, *(spec.name for spec in fields(SegmentRecord))
)


class SegmentCascadeMixin:
    """Segment re-ingest hook for epsilon-pyramid cascades.

    A coarser pyramid level consumes the finer level's *segment endpoints*
    instead of the raw point stream — O(segments), not O(points).  Any
    simplifier with the block-ingest float step ``_step(x, y, t)`` and a
    ``_finished`` flag (see :mod:`repro.trajectory.blocks`) that inherits
    this mixin gains ``push_segment`` and thereby satisfies the ``pyramid``
    capability flag (RPA002 checks that the hook is actually defined).

    Defined here rather than in :mod:`repro.algorithms.base` (which
    re-exports it) because ``repro.core`` simplifiers inherit it, and
    importing the ``algorithms`` package from ``core`` would close an
    import cycle through ``api.builtin``.

    The mixin is stateless: whether a segment's start must be re-ingested
    (stream start, or a discontinuity after the finer level patched its
    endpoints) is the *caller's* knowledge —
    :class:`repro.streaming.PyramidSession` tracks the last endpoint it
    forwarded per level and passes ``include_start`` accordingly.
    """

    def push_segment(
        self, segment: SegmentRecord, *, include_start: bool = False
    ) -> list[SegmentRecord]:
        """Re-ingest one finer-level segment into this simplifier.

        Pushes ``segment.start`` first when ``include_start`` is true (the
        very first segment of a stream, or after a gap), then
        ``segment.end``.  Returns the segments emitted, in push order.
        """
        if self._finished:  # type: ignore[attr-defined]
            raise SimplificationError("push() called after finish()")
        step = self._step  # type: ignore[attr-defined]
        end = segment.end
        if not include_start:
            return step(end.x, end.y, end.t)
        start = segment.start
        emitted = step(start.x, start.y, start.t)
        emitted.extend(step(end.x, end.y, end.t))
        return emitted


@dataclass
class PiecewiseRepresentation:
    """A sequence of :class:`SegmentRecord` forming a compressed trajectory."""

    segments: list[SegmentRecord] = field(default_factory=list)
    source_size: int = 0
    algorithm: str = ""

    @classmethod
    def from_retained_indices(
        cls, trajectory, indices: Sequence[int], *, algorithm: str = ""
    ) -> "PiecewiseRepresentation":
        """Build a representation from the sorted indices of retained points.

        This is the natural output form of batch algorithms such as DP, which
        decide which original points to keep.
        """
        indices = sorted(set(int(i) for i in indices))
        if len(trajectory) > 0:
            if not indices or indices[0] != 0:
                indices.insert(0, 0)
            if indices[-1] != len(trajectory) - 1:
                indices.append(len(trajectory) - 1)
        segments = [
            SegmentRecord.from_indices(trajectory, first, last)
            for first, last in zip(indices[:-1], indices[1:])
        ]
        return cls(segments=segments, source_size=len(trajectory), algorithm=algorithm)

    # ------------------------------------------------------------------ #
    # Container behaviour
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[SegmentRecord]:
        return iter(self.segments)

    def __getitem__(self, index: int) -> SegmentRecord:
        return self.segments[index]

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def n_segments(self) -> int:
        """Number of directed line segments in the representation."""
        return len(self.segments)

    @property
    def retained_points(self) -> list[Point]:
        """The polyline vertices: segment starts plus the final end point."""
        if not self.segments:
            return []
        points = [segment.start for segment in self.segments]
        points.append(self.segments[-1].end)
        return points

    def compression_ratio(self) -> float:
        """Segments divided by original points (lower is better, as in the paper)."""
        if self.source_size == 0:
            return 0.0
        return self.n_segments / self.source_size

    def segments_covering_index(self, index: int) -> list[SegmentRecord]:
        """All segments whose covered range includes original point ``index``."""
        return [segment for segment in self.segments if segment.covers_index(index)]

    def anomalous_segments(self) -> list[SegmentRecord]:
        """Segments representing only their own two endpoints (Section 5.1)."""
        return [segment for segment in self.segments if segment.is_anomalous]

    def point_counts(self) -> list[int]:
        """Credited point count of every segment, in order."""
        return [segment.point_count for segment in self.segments]

    def validate_continuity(self, *, tolerance: float = 1e-6) -> None:
        """Check that consecutive segments share endpoints.

        Raises
        ------
        InvalidTrajectoryError
            If a gap larger than ``tolerance`` exists between the end of one
            segment and the start of the next.
        """
        for previous, current in zip(self.segments[:-1], self.segments[1:]):
            gap = previous.end.distance_to(current.start)
            if gap > tolerance:
                raise InvalidTrajectoryError(
                    f"piecewise representation is discontinuous: gap of {gap:.6g} "
                    f"between segment ending at index {previous.last_index} and the next"
                )

    def extend(self, records: Iterable[SegmentRecord]) -> None:
        """Append several segment records."""
        self.segments.extend(records)
