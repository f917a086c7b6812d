"""OPERB — the one-pass error bounded trajectory simplifier (paper Section 4).

:class:`OPERBSimplifier` is a push-based state machine: points are fed one at
a time through :meth:`~OPERBSimplifier.push`, finalised line segments are
returned as soon as they are determined, and :meth:`~OPERBSimplifier.finish`
flushes the trailing segment(s).  This is the natural realisation of the
paper's one-pass claim — every data point is examined once, against a state of
constant size — and also what a sensor on a mobile device would run.

The batch convenience function :func:`operb` wraps the streaming machine for
whole :class:`~repro.trajectory.model.Trajectory` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from ..exceptions import SimplificationError
from ..geometry import kernels
from ..geometry.kernels import ped_point_to_chord
from ..geometry.point import Point, encode_point
from ..trajectory.blocks import BlockIngestMixin, drive_block_steps
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import (
    PiecewiseRepresentation,
    SegmentCascadeMixin,
    SegmentRecord,
)
from .config import OperbConfig
from .fitting import FittingState, PointOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trajectory.soa import PointBlock

__all__ = ["OperbStatistics", "OPERBSimplifier", "operb", "raw_operb"]


@dataclass
class OperbStatistics:
    """Aggregate counters of a simplification run."""

    points_processed: int = 0
    segments_emitted: int = 0
    anomalous_segments: int = 0
    absorbed_points: int = 0
    forced_breaks: int = 0
    distance_computations: int = 0


class OPERBSimplifier(SegmentCascadeMixin, BlockIngestMixin):
    """Streaming OPERB simplifier.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.OperbConfig`.  Use
        ``OperbConfig.optimized(epsilon)`` for the paper's OPERB and
        ``OperbConfig.raw(epsilon)`` for Raw-OPERB.

    Examples
    --------
    >>> from repro import OperbConfig, OPERBSimplifier, Point
    >>> simplifier = OPERBSimplifier(OperbConfig.optimized(10.0))
    >>> emitted = []
    >>> for i in range(100):
    ...     emitted.extend(simplifier.push(Point(float(i), 0.0, float(i))))
    >>> emitted.extend(simplifier.finish())
    >>> len(emitted)
    1
    """

    name = "operb"

    # Not snapshot state (RPA001): ``config`` is immutable configuration the
    # restoring side supplies, ``_probe_backoff`` is block-ingest probe
    # spacing and ``_spare_fitting`` a closed segment's fitting state kept
    # for reuse — pure acceleration state that never affects output.
    _SNAPSHOT_EXCLUDE = frozenset({"config", "_probe_backoff", "_spare_fitting"})

    def __init__(self, config: OperbConfig) -> None:
        self.config = config
        self.stats = OperbStatistics()
        self._index = -1
        # The previous fix, as floats (meaningful once ``_index >= 0``).
        self._previous_x = 0.0
        self._previous_y = 0.0
        self._previous_t = 0.0
        # The segment being grown: its fitting state (which holds the
        # anchor and the last active fix) and its index book-keeping.
        self._fitting: FittingState | None = None
        self._spare_fitting: FittingState | None = None
        self._anchor_index = -1
        self._last_active_index = -1
        self._points_in_segment = 0
        # Optimisation 5: the closed record absorbing trailing fixes.  The
        # absorbed fixes are counted here and folded into a new record only
        # by ``_credited``, at emission or snapshot time.
        self._absorbing: SegmentRecord | None = None
        self._absorbed = 0
        self._absorbing_count = 0
        self._absorbing_covered = -1
        self._finished = False
        # Block-ingest probe spacing (acceleration state only: never part of
        # a snapshot, never observable in segments or statistics).
        self._probe_backoff = 0

    # ------------------------------------------------------------------ #
    # Public streaming API
    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> float:
        """The error bound this simplifier enforces."""
        return self.config.epsilon

    @property
    def is_finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._finished

    def push(self, point: Point) -> list[SegmentRecord]:
        """Feed the next trajectory point; return any finalised segments."""
        if self._finished:
            raise SimplificationError("push() called after finish()")
        return self._step(point.x, point.y, point.t)

    def _step(self, x: float, y: float, t: float) -> list[SegmentRecord]:
        """Ingest the fix ``(x, y, t)``: the one per-fix path of every ingest form.

        ``push``, the block driver's replays and batch ``simplify`` all end
        here.  The fix stays three floats; a ``Point`` is built only for
        the endpoints of a record this fix closes.
        """
        index = self._index + 1
        self._index = index
        self.stats.points_processed += 1
        emitted: list[SegmentRecord] = []
        if self._absorbing is not None:
            if self._try_absorb(x, y):
                self._previous_x = x
                self._previous_y = y
                self._previous_t = t
                return emitted
            emitted.append(self._end_absorption())
            # Fall through: the fix is processed in the fresh segment below.

        fitting = self._fitting
        if fitting is None:
            # Very first fix of the stream.
            self._start_segment(Point(x, y, t), index)
        elif self._points_in_segment >= self.config.max_points_per_segment:
            self.stats.forced_breaks += 1
            self._break_segment(x, y, t, index, emitted)
        else:
            outcome = fitting.observe(x, y, t)
            if outcome is PointOutcome.VIOLATION:
                self._break_segment(x, y, t, index, emitted)
            else:
                if outcome is PointOutcome.ACTIVE:
                    self._last_active_index = index
                self._points_in_segment += 1
        self._previous_x = x
        self._previous_y = y
        self._previous_t = t
        return emitted

    def _block_steps(
        self, block: "PointBlock"
    ) -> Iterator[tuple[int, list[SegmentRecord]]]:
        """Probe-driven block loop behind :meth:`push_block`."""
        return drive_block_steps(self, block, self._block_probe(block))

    def _block_probe(self, block: "PointBlock") -> Callable[[int], tuple[int, bool, bool]]:
        """The :func:`drive_block_steps` probe over ``block``.

        Runs of absorbed points (pre-direction points near the anchor,
        inactive points inside the deviation budget, trailing points
        absorbed by optimisation 5) are detected with one vectorized
        prefix-kernel call each; only the run-breaking points go through
        the scalar step.  The bulk runs never close a segment, so OPERB-A
        drives this same probe with its own step.
        """
        xs = block.xs
        ys = block.ys
        n = xs.shape[0]
        config = self.config

        def probe(start: int) -> tuple[int, bool, bool]:
            absorbing = self._absorbing
            if absorbing is not None:
                stop = start + min(n - start, kernels.BLOCK_LOOKAHEAD)
                count = kernels.chord_prefix_within(
                    xs[start:stop],
                    ys[start:stop],
                    absorbing.start.x,
                    absorbing.start.y,
                    absorbing.end.x,
                    absorbing.end.y,
                    config.epsilon,
                )
                if count:
                    self._bulk_advance(block, start, count)
                    self.stats.distance_computations += count
                    self._credit(count)
                return count, True, start + count == stop
            if self._fitting is not None:
                room = config.max_points_per_segment - self._points_in_segment
                if room > 0:
                    stop = start + min(n - start, room, kernels.BLOCK_LOOKAHEAD)
                    count = self._bulk_inactive(block, start, stop)
                    return count, True, start + count == stop
            # Segment cap exhausted (forced break) or the stream's very
            # first point: nothing to probe against.
            return 0, False, False

        return probe

    def _bulk_inactive(self, block: "PointBlock", start: int, stop: int) -> int:
        """Bulk-ingest the leading absorbed-inactive run of ``[start, stop)``.

        Returns the run length; all state a per-point loop would have touched
        for those points (fitting statistics, one-sided deviation maxima,
        indices, segment fill) is updated to the identical values.
        """
        fitting = self._fitting
        assert fitting is not None
        config = self.config
        anchor = fitting.anchor
        xs = block.xs[start:stop]
        ys = block.ys[start:stop]
        if not fitting.has_direction:
            count = kernels.prefix_within_radius(
                xs, ys, anchor.x, anchor.y, config.first_active_threshold
            )
            if not count:
                return 0
        else:
            count, d_plus, d_minus = kernels.operb_fitting_prefix(
                xs,
                ys,
                anchor.x,
                anchor.y,
                fitting.theta,
                fitting.last_active_theta,
                fitting.length,
                config.epsilon,
                config.quarter_epsilon,
                config.half_epsilon,
                config.opt_two_sided_deviation,
                fitting.d_plus_max,
                fitting.d_minus_max,
            )
            if not count:
                return 0
            fitting.d_plus_max = d_plus
            fitting.d_minus_max = d_minus
            # One fitted-line and one last-active-line check per point.
            fitting.stats.distance_computations += 2 * count
        fitting.stats.points_observed += count
        fitting.stats.inactive_points += count
        self._points_in_segment += count
        self._bulk_advance(block, start, count)
        return count

    def _bulk_advance(self, block: "PointBlock", start: int, count: int) -> None:
        """Advance the stream over ``count`` bulk-ingested fixes of ``block``."""
        self._index += count
        self.stats.points_processed += count
        last = start + count - 1
        self._previous_x = block.xs.item(last)
        self._previous_y = block.ys.item(last)
        self._previous_t = block.ts.item(last)

    def finish(self) -> list[SegmentRecord]:
        """Flush and return the remaining segment(s); further pushes are rejected."""
        if self._finished:
            return []
        self._finished = True
        # A head record (the open one), then a tail from ``tail_start`` to
        # the last fix when fixes follow it.
        fitting = self._fitting
        tail_count = -1
        if self._absorbing is not None:
            head: SegmentRecord | None = _credited(
                self._absorbing, self._absorbing_count, self._absorbing_covered
            )
            self._absorbing = None
            tail_start, tail_index, tail_count = head.end, head.last_index, 2
        elif fitting is not None:
            self._fitting = None
            self.stats.distance_computations += fitting.stats.distance_computations
            last_active = fitting.last_active_point
            if last_active is None:
                head = None
                tail_start, tail_index = fitting.anchor, self._anchor_index
            else:
                # Trailing inactive points were checked against this
                # segment's lines, so they remain covered by it.
                head = SegmentRecord(
                    start=fitting.anchor,
                    end=last_active,
                    first_index=self._anchor_index,
                    last_index=self._last_active_index,
                    covered_last_index=self._index,
                )
                tail_start, tail_index = last_active, self._last_active_index
        else:
            return []
        emitted = [] if head is None else [self._register(head)]
        if self._index > tail_index:
            tail = SegmentRecord(
                start=tail_start,
                end=Point(self._previous_x, self._previous_y, self._previous_t),
                first_index=tail_index,
                last_index=self._index,
                point_count=tail_count,
            )
            emitted.append(self._register(tail))
        return emitted

    # ------------------------------------------------------------------ #
    # Checkpoint protocol
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-serialisable state: resuming from it is byte-identical.

        The configuration is not included — :meth:`restore` must be called on
        a fresh simplifier built with the same :class:`OperbConfig`, which is
        the caller's (descriptor's/checkpoint's) responsibility.
        """
        fitting = self._fitting
        return {
            "index": self._index,
            "finished": self._finished,
            "previous_point": None
            if self._index < 0
            else [self._previous_x, self._previous_y, self._previous_t],
            "stats": vars(self.stats).copy(),
            "segment": None
            if fitting is None
            else {
                "anchor": encode_point(fitting.anchor),
                "anchor_index": self._anchor_index,
                "fitting": fitting.snapshot(),
                "last_active": encode_point(fitting.last_active_point),
                "last_active_index": self._last_active_index,
                "points_in_segment": self._points_in_segment,
            },
            "absorption": None
            if self._absorbing is None
            else {
                "segment": _credited(
                    self._absorbing, self._absorbing_count, self._absorbing_covered
                ).to_dict(),
                "absorbed": self._absorbed,
            },
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this (fresh) simplifier instance."""
        if self._index >= 0 or self._finished:
            raise SimplificationError("restore() requires a fresh simplifier instance")
        self._index = int(state["index"])
        self._finished = bool(state["finished"])
        previous = state["previous_point"]
        if previous is not None:
            self._previous_x, self._previous_y, self._previous_t = previous
        self.stats = OperbStatistics(**state["stats"])
        segment = state["segment"]
        if segment is not None:
            # The anchor and the last active fix are the fitting state's
            # own; the snapshot repeats them for the format's sake.
            self._fitting = FittingState.from_snapshot(segment["fitting"], self.config)
            self._anchor_index = int(segment["anchor_index"])
            self._last_active_index = int(segment["last_active_index"])
            self._points_in_segment = int(segment["points_in_segment"])
        absorption = state["absorption"]
        if absorption is not None:
            self._absorb(SegmentRecord.from_dict(absorption["segment"]))
            self._absorbed = int(absorption["absorbed"])

    # ------------------------------------------------------------------ #
    # Internal machinery
    # ------------------------------------------------------------------ #
    def _register(self, segment: SegmentRecord) -> SegmentRecord:
        """Account for an emitted segment in the run statistics."""
        self.stats.segments_emitted += 1
        if segment.point_count <= 2:  # is_anomalous, inlined (once per segment)
            self.stats.anomalous_segments += 1
        return segment

    def _start_segment(self, anchor: Point, anchor_index: int) -> None:
        """Open a new segment anchored at ``anchor``."""
        fitting = self._spare_fitting
        if fitting is None:
            self._fitting = FittingState(anchor, self.config)
        else:
            self._spare_fitting = None
            fitting.reset(anchor)
            self._fitting = fitting
        self._anchor_index = anchor_index
        self._last_active_index = -1
        self._points_in_segment = 1

    def _break_segment(
        self, x: float, y: float, t: float, index: int, emitted: list[SegmentRecord]
    ) -> None:
        """Close the open segment at fix ``(x, y, t)`` and feed it to the next one."""
        fitting = self._fitting
        assert fitting is not None
        self._fitting = None
        self._spare_fitting = fitting
        self.stats.distance_computations += fitting.stats.distance_computations
        anchor_index = self._anchor_index
        if fitting.has_direction:
            end_point = Point(fitting.last_active_x, fitting.last_active_y, fitting.last_active_t)
            end_index = self._last_active_index
        elif index - 1 > anchor_index:
            # Extremely long runs of inactive points can exhaust the per-segment
            # cap before any active point appears; fall back to the previous point.
            end_point = Point(self._previous_x, self._previous_y, self._previous_t)
            end_index = index - 1
        else:
            end_point = fitting.anchor
            end_index = anchor_index
        # Inactive points observed after the last active point were checked
        # against this segment's lines (not the next segment's), so they stay
        # error-bounded by *this* segment: record them as covered by it.
        record = SegmentRecord(
            start=fitting.anchor,
            end=end_point,
            first_index=anchor_index,
            last_index=end_index,
            covered_last_index=end_index if end_index > index - 1 else index - 1,
        )
        if self.config.opt_absorb_trailing_points:
            self._absorb(record)
            if self._try_absorb(x, y):
                return
            self._absorbing = None
        emitted.append(self._register(record))
        self._start_segment(end_point, end_index)
        # The breaking point is the first point of the fresh segment; a
        # fresh fitting state can never report a violation for it.
        outcome = self._fitting.observe(x, y, t)  # type: ignore[union-attr]
        if outcome is PointOutcome.VIOLATION:
            raise SimplificationError(
                "fresh segment rejected its first point; this is a bug"
            )
        if outcome is PointOutcome.ACTIVE:
            self._last_active_index = index
        self._points_in_segment += 1

    def _absorb(self, record: SegmentRecord) -> None:
        """Optimisation 5: start absorbing trailing fixes into ``record``."""
        self._absorbing = record
        self._absorbed = 0
        self._absorbing_count = record.point_count
        self._absorbing_covered = record.covered_last_index

    def _try_absorb(self, x: float, y: float) -> bool:
        """Optimisation 5: try to absorb fix ``(x, y)`` into the pending segment."""
        record = self._absorbing
        assert record is not None
        self.stats.distance_computations += 1
        start = record.start
        end = record.end
        if ped_point_to_chord(x, y, start.x, start.y, end.x, end.y) > self.config.epsilon:
            return False
        self._credit(1)
        return True

    def _credit(self, count: int) -> None:
        """Credit the last ``count`` fixes of the stream as absorbed."""
        self.stats.absorbed_points += count
        self._absorbed += count
        self._absorbing_count += count
        self._absorbing_covered = self._index

    def _end_absorption(self) -> SegmentRecord:
        """Stop absorbing, emit the pending segment, and open the next one."""
        assert self._absorbing is not None
        record = _credited(self._absorbing, self._absorbing_count, self._absorbing_covered)
        self._absorbing = None
        self._start_segment(record.end, record.last_index)
        return self._register(record)


def _credited(record: SegmentRecord, point_count: int, covered_last_index: int) -> SegmentRecord:
    """``record`` crediting ``point_count`` points, covered to ``covered_last_index``."""
    if point_count == record.point_count:
        return record  # nothing absorbed since it was closed (or restored)
    return SegmentRecord(
        start=record.start,
        end=record.end,
        first_index=record.first_index,
        last_index=record.last_index,
        point_count=point_count,
        covered_last_index=covered_last_index,
        patched_start=record.patched_start,
        patched_end=record.patched_end,
    )


def operb(
    trajectory: Trajectory, epsilon: float, *, config: OperbConfig | None = None
) -> PiecewiseRepresentation:
    """Simplify ``trajectory`` with OPERB (all optimisations enabled).

    Parameters
    ----------
    trajectory:
        The trajectory to compress.
    epsilon:
        The error bound ``zeta``.
    config:
        Optional fully-specified configuration; when provided, ``epsilon`` is
        ignored in favour of ``config.epsilon``.
    """
    if config is None:
        config = OperbConfig.optimized(epsilon)
    return OPERBSimplifier(config).simplify(trajectory)


def raw_operb(trajectory: Trajectory, epsilon: float) -> PiecewiseRepresentation:
    """Simplify ``trajectory`` with Raw-OPERB (no optimisations, Figure 7 only)."""
    representation = OPERBSimplifier(OperbConfig.raw(epsilon)).simplify(trajectory)
    representation.algorithm = "raw-operb"
    return representation
