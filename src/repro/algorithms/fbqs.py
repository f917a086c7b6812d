"""FBQS — the fast (linear-time) variant of the Bounded Quadrant System.

FBQS is the strongest efficiency baseline in the paper: it keeps BQS's
per-quadrant bounding structures but never falls back to an exact window
scan.  Whenever the conservative upper bound derived from the significant
points exceeds the error bound, the current window is closed at the previous
point and a new window starts.  Each point is therefore examined against a
constant number of significant points, giving ``O(n)`` time.

The implementation is push-based (:class:`FBQSSimplifier`) so that it can be
used in the same streaming pipelines as OPERB; :func:`fbqs` is the batch
wrapper used by the experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..exceptions import SimplificationError
from ..geometry import kernels
from ..geometry.point import Point, decode_point, encode_point
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import (
    PiecewiseRepresentation,
    SegmentCascadeMixin,
    SegmentRecord,
)
from ..trajectory.blocks import BlockIngestMixin, drive_block_steps
from .base import trivial_representation, validate_epsilon
from .bqs import BoundedQuadrantWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trajectory.soa import PointBlock

__all__ = ["FBQSSimplifier", "fbqs"]


class FBQSSimplifier(SegmentCascadeMixin, BlockIngestMixin):
    """Streaming FBQS simplifier (push/finish interface)."""

    name = "fbqs"

    # Not snapshot state (RPA001): ``epsilon`` is immutable configuration the
    # restoring side supplies, ``_probe_backoff`` is block-ingest probe
    # spacing — pure acceleration state that never affects output.
    _SNAPSHOT_EXCLUDE = frozenset({"epsilon", "_probe_backoff"})

    def __init__(self, epsilon: float) -> None:
        self.epsilon = validate_epsilon(epsilon)
        self._window: BoundedQuadrantWindow | None = None
        self._anchor: Point | None = None
        self._anchor_index = -1
        self._previous: Point | None = None
        self._previous_index = -1
        self._index = -1
        self._finished = False
        # Block-ingest probe spacing (acceleration state only; not part of
        # the snapshot protocol).
        self._probe_backoff = 0

    def push(self, point: Point) -> list[SegmentRecord]:
        """Feed the next point; return the segment closed by it, if any."""
        if self._finished:
            raise SimplificationError("push() called after finish()")
        self._index += 1
        emitted: list[SegmentRecord] = []

        if self._anchor is None:
            self._anchor = point
            self._anchor_index = self._index
            self._window = BoundedQuadrantWindow(point)
            self._previous = point
            self._previous_index = self._index
            return emitted

        assert self._window is not None
        _, upper = self._window.distance_bounds(point)
        if upper <= self.epsilon:
            self._window.add(point)
            self._previous = point
            self._previous_index = self._index
            return emitted

        # Close the window at the previous point and restart from there.
        close_point = self._previous if self._previous is not None else self._anchor
        close_index = self._previous_index if self._previous_index >= 0 else self._anchor_index
        if close_index > self._anchor_index:
            emitted.append(
                SegmentRecord(
                    start=self._anchor,
                    end=close_point,
                    first_index=self._anchor_index,
                    last_index=close_index,
                )
            )
            self._anchor = close_point
            self._anchor_index = close_index
        self._window = BoundedQuadrantWindow(self._anchor)
        self._window.add(point)
        self._previous = point
        self._previous_index = self._index
        return emitted

    def _block_steps(
        self, block: "PointBlock"
    ) -> Iterator[tuple[int, list[SegmentRecord]]]:
        """Probe-driven block loop behind :meth:`push_block`.

        Runs of candidates are bulk-accepted through the vectorized
        corner-radius screen
        (:func:`repro.geometry.kernels.quadrant_corner_screen`): when the
        window's quadrant boxes — extended by a whole slice of points — stay
        within ``epsilon`` of the anchor, every candidate in the slice is
        provably acceptable and only the cheap ``add`` bookkeeping runs.
        Inconclusive slices replay through the scalar :meth:`push`.
        """
        xs = block.xs
        ys = block.ys
        n = len(block)

        def probe(start: int) -> tuple[int, bool, bool]:
            window = self._window
            if window is None:
                return 0, False, False
            width = min(n - start, kernels.BLOCK_LOOKAHEAD)
            anchor = window.anchor
            bounds = tuple(
                (q.min_x, q.max_x, q.min_y, q.max_y) for q in window.quadrants
            )
            # Shrink the slice on an inconclusive screen: a run that ends
            # inside the lookahead is still bulk-accepted in chunks.
            while width >= kernels.BLOCK_MIN_RUN:
                stop = start + width
                if kernels.quadrant_corner_screen(
                    xs[start:stop], ys[start:stop], anchor.x, anchor.y, bounds, self.epsilon
                ):
                    self._bulk_accept(block, start, stop)
                    return width, True, True
                width //= 8
            # Inconclusive at every width: the window is near its bound (or
            # the stream is leaving the anchor) — the exact scalar path
            # decides, with the driver's growing probe spacing.
            return 0, True, False

        return drive_block_steps(self, block, probe)

    def _bulk_accept(self, block: "PointBlock", start: int, stop: int) -> None:
        """Accept ``[start, stop)`` into the open window (screen-verified).

        Performs exactly the state updates of :meth:`push`'s accept branch
        for each point, in order — the window's quadrant bounds, witness
        points and angles evolve identically to per-point ingest.
        """
        window = self._window
        assert window is not None
        add = window.add
        for offset in range(start, stop):
            point = block.point(offset)
            self._index += 1
            add(point)
            self._previous = point
            self._previous_index = self._index

    def finish(self) -> list[SegmentRecord]:
        """Flush the final open window."""
        if self._finished:
            return []
        self._finished = True
        if self._anchor is None or self._previous is None:
            return []
        if self._previous_index <= self._anchor_index:
            return []
        return [
            SegmentRecord(
                start=self._anchor,
                end=self._previous,
                first_index=self._anchor_index,
                last_index=self._previous_index,
            )
        ]

    def snapshot(self) -> dict:
        """JSON-serialisable state, including the open window's bounds."""
        return {
            "window": None if self._window is None else self._window.to_dict(),
            "anchor": encode_point(self._anchor),
            "anchor_index": self._anchor_index,
            "previous": encode_point(self._previous),
            "previous_index": self._previous_index,
            "index": self._index,
            "finished": self._finished,
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this (fresh) simplifier instance."""
        if self._index >= 0 or self._finished:
            raise SimplificationError("restore() requires a fresh simplifier instance")
        window = state["window"]
        self._window = None if window is None else BoundedQuadrantWindow.from_dict(window)
        self._anchor = decode_point(state["anchor"])
        self._anchor_index = int(state["anchor_index"])
        self._previous = decode_point(state["previous"])
        self._previous_index = int(state["previous_index"])
        self._index = int(state["index"])
        self._finished = bool(state["finished"])


def fbqs(trajectory: Trajectory, epsilon: float) -> PiecewiseRepresentation:
    """Simplify ``trajectory`` with FBQS (linear-time bounded quadrant system)."""
    trivial = trivial_representation(trajectory, algorithm="fbqs")
    if trivial is not None:
        return trivial
    return FBQSSimplifier(epsilon).simplify(trajectory)
