"""Dead-reckoning online simplification.

A classic online sampling scheme used by tracking systems: the sender keeps
the last transmitted point and its velocity, predicts the current position by
linear extrapolation, and transmits a new point only when the prediction
error exceeds the threshold.  It is one-pass and O(1)-space like OPERB but
bounds the *prediction* error rather than the distance to the reconstructed
line, so its output quality on sharp turns is noticeably worse.  Included as
an extension baseline for the examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..exceptions import SimplificationError
from ..geometry import kernels
from ..geometry.point import Point, decode_point, encode_point
from ..trajectory.blocks import BlockIngestMixin, drive_block_steps
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import PiecewiseRepresentation, SegmentRecord
from .base import trivial_representation, validate_epsilon

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trajectory.soa import PointBlock

__all__ = ["DeadReckoningSimplifier", "dead_reckoning"]


class DeadReckoningSimplifier(BlockIngestMixin):
    """Streaming dead-reckoning simplifier (push/finish interface)."""

    name = "dead-reckoning"

    # Not snapshot state (RPA001): ``epsilon`` is immutable configuration the
    # restoring side supplies, ``_probe_backoff`` is block-ingest probe
    # spacing — pure acceleration state that never affects output.
    _SNAPSHOT_EXCLUDE = frozenset({"epsilon", "_probe_backoff"})

    def __init__(self, epsilon: float) -> None:
        self.epsilon = validate_epsilon(epsilon)
        self._last_kept: Point | None = None
        self._last_kept_index = -1
        self._velocity = (0.0, 0.0)
        # The previous fix, as floats (meaningful once ``_index >= 0``).
        self._previous_x = self._previous_y = self._previous_t = 0.0
        self._index = -1
        self._finished = False
        # Block-ingest probe spacing (acceleration state only; not part of
        # the snapshot protocol).
        self._probe_backoff = 0

    def push(self, point: Point) -> list[SegmentRecord]:
        """Feed the next point; return the segment closed by it, if any."""
        if self._finished:
            raise SimplificationError("push() called after finish()")
        return self._step(point.x, point.y, point.t)

    def _step(self, x: float, y: float, t: float) -> list[SegmentRecord]:
        """The block-ingest float step; a ``Point`` is built only for a kept fix."""
        self._index += 1
        emitted: list[SegmentRecord] = []
        kept = self._last_kept
        if kept is None:
            self._last_kept = Point(x, y, t)
            self._last_kept_index = self._index
        elif (
            # Routed through the scalar prediction kernel so the vectorized
            # block path (prediction_prefix_within) makes bit-identical
            # keep/transmit decisions.
            kernels.prediction_error_point(
                x, y, t, kept.x, kept.y, kept.t, self._velocity[0], self._velocity[1]
            )
            > self.epsilon
        ):
            point = Point(x, y, t)
            emitted.append(
                SegmentRecord(
                    start=kept,
                    end=point,
                    first_index=self._last_kept_index,
                    last_index=self._index,
                )
            )
            step_dt = t - self._previous_t
            if step_dt > 0.0:
                self._velocity = (
                    (x - self._previous_x) / step_dt,
                    (y - self._previous_y) / step_dt,
                )
            else:
                self._velocity = (0.0, 0.0)
            self._last_kept = point
            self._last_kept_index = self._index
        self._previous_x = x
        self._previous_y = y
        self._previous_t = t
        return emitted

    def _block_steps(
        self, block: "PointBlock"
    ) -> Iterator[tuple[int, list[SegmentRecord]]]:
        """Probe-driven block loop behind :meth:`push_block`.

        Between transmissions the sender state (last kept point, velocity)
        is frozen, so a whole run of within-bound fixes is detected with one
        vectorized prediction-error kernel call; only the fixes that force a
        transmission take the scalar :meth:`push`.
        """
        xs = block.xs
        ys = block.ys
        ts = block.ts
        n = xs.shape[0]

        def probe(start: int) -> tuple[int, bool, bool]:
            kept = self._last_kept
            if kept is None:
                return 0, False, False
            stop = start + min(n - start, kernels.BLOCK_LOOKAHEAD)
            count = kernels.prediction_prefix_within(
                xs[start:stop],
                ys[start:stop],
                ts[start:stop],
                kept.x,
                kept.y,
                kept.t,
                self._velocity[0],
                self._velocity[1],
                self.epsilon,
            )
            if count:
                # Within-bound fixes leave the sender state untouched.
                self._index += count
                last = start + count - 1
                self._previous_x = xs.item(last)
                self._previous_y = ys.item(last)
                self._previous_t = ts.item(last)
            return count, True, start + count == stop

        return drive_block_steps(self, block, probe)

    def finish(self) -> list[SegmentRecord]:
        """Flush the final segment up to the last seen point."""
        if self._finished:
            return []
        self._finished = True
        if self._last_kept is None or self._index <= self._last_kept_index:
            return []
        return [
            SegmentRecord(
                start=self._last_kept,
                end=Point(self._previous_x, self._previous_y, self._previous_t),
                first_index=self._last_kept_index,
                last_index=self._index,
            )
        ]

    def snapshot(self) -> dict:
        """JSON-serialisable state (last kept point, velocity, counters)."""
        return {
            "last_kept": encode_point(self._last_kept),
            "last_kept_index": self._last_kept_index,
            "velocity": list(self._velocity),
            "previous": None
            if self._index < 0
            else [self._previous_x, self._previous_y, self._previous_t],
            "index": self._index,
            "finished": self._finished,
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this (fresh) simplifier instance."""
        if self._index >= 0 or self._finished:
            raise SimplificationError("restore() requires a fresh simplifier instance")
        self._last_kept = decode_point(state["last_kept"])
        self._last_kept_index = int(state["last_kept_index"])
        velocity = state["velocity"]
        self._velocity = (float(velocity[0]), float(velocity[1]))
        previous = state["previous"]
        if previous is not None:
            self._previous_x, self._previous_y, self._previous_t = previous
        self._index = int(state["index"])
        self._finished = bool(state["finished"])


def dead_reckoning(trajectory: Trajectory, epsilon: float) -> PiecewiseRepresentation:
    """Simplify ``trajectory`` with dead reckoning (prediction-error threshold)."""
    trivial = trivial_representation(trajectory, algorithm="dead-reckoning")
    if trivial is not None:
        return trivial
    return DeadReckoningSimplifier(epsilon).simplify(trajectory)
