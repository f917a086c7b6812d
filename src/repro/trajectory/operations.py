"""Trajectory pre-processing operations.

The paper's introduction motivates online compression partly by the messiness
of raw device feeds: duplicate points, out-of-order points, bursts and gaps.
This module provides the corresponding clean-up and reshaping operations so a
raw feed can be normalised before (or while) being simplified.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..exceptions import InvalidParameterError
from .model import Trajectory

__all__ = [
    "sort_by_time",
    "drop_duplicate_points",
    "drop_outliers_by_speed",
    "split_on_time_gap",
    "resample_by_count",
    "resample_by_interval",
    "concatenate",
    "translate",
]


def sort_by_time(trajectory: Trajectory) -> Trajectory:
    """Return a copy of ``trajectory`` with points sorted by timestamp.

    Sorting is stable, so points sharing a timestamp keep their arrival
    order.  This repairs the out-of-order points that online transmission can
    introduce (see the paper's introduction).
    """
    order = np.argsort(trajectory.ts, kind="stable")
    return Trajectory(
        trajectory.xs[order],
        trajectory.ys[order],
        trajectory.ts[order],
        trajectory_id=trajectory.trajectory_id,
    )


def drop_duplicate_points(trajectory: Trajectory, *, spatial_tolerance: float = 0.0) -> Trajectory:
    """Remove consecutive points that repeat the same timestamp and position.

    Parameters
    ----------
    spatial_tolerance:
        Two consecutive points closer than this (with an identical timestamp)
        are considered duplicates.  ``0.0`` requires exact coincidence.
    """
    if len(trajectory) < 2:
        return trajectory
    keep = [0]
    for index in range(1, len(trajectory)):
        previous = trajectory[keep[-1]]
        current = trajectory[index]
        same_time = current.t == previous.t
        same_place = current.distance_to(previous) <= spatial_tolerance
        if same_time and same_place:
            continue
        keep.append(index)
    return Trajectory(
        trajectory.xs[keep],
        trajectory.ys[keep],
        trajectory.ts[keep],
        trajectory_id=trajectory.trajectory_id,
    )


def drop_outliers_by_speed(trajectory: Trajectory, *, max_speed: float) -> Trajectory:
    """Remove points that would require travelling faster than ``max_speed``.

    A point is dropped when the speed needed to reach it from the last kept
    point exceeds ``max_speed`` (metres per second).  This is a standard
    cheap filter for GPS glitches.
    """
    if max_speed <= 0.0:
        raise InvalidParameterError("max_speed must be positive")
    if len(trajectory) < 2:
        return trajectory
    keep = [0]
    for index in range(1, len(trajectory)):
        previous = trajectory[keep[-1]]
        current = trajectory[index]
        dt = current.t - previous.t
        distance = current.distance_to(previous)
        if dt <= 0.0:
            if distance > 0.0:
                continue
            speed = 0.0
        else:
            speed = distance / dt
        if speed > max_speed:
            continue
        keep.append(index)
    return Trajectory(
        trajectory.xs[keep],
        trajectory.ys[keep],
        trajectory.ts[keep],
        trajectory_id=trajectory.trajectory_id,
    )


def split_on_time_gap(trajectory: Trajectory, *, max_gap: float) -> list[Trajectory]:
    """Split a trajectory wherever the sampling gap exceeds ``max_gap`` seconds."""
    if max_gap <= 0.0:
        raise InvalidParameterError("max_gap must be positive")
    if len(trajectory) < 2:
        return [trajectory]
    gaps = np.where(np.diff(trajectory.ts) > max_gap)[0]
    if gaps.size == 0:
        return [trajectory]
    pieces: list[Trajectory] = []
    start = 0
    for gap_index in gaps:
        pieces.append(trajectory.slice(start, int(gap_index) + 1))
        start = int(gap_index) + 1
    pieces.append(trajectory.slice(start, len(trajectory)))
    return [piece for piece in pieces if len(piece) > 0]


def resample_by_count(trajectory: Trajectory, count: int) -> Trajectory:
    """Keep ``count`` points spread evenly over the trajectory (by index)."""
    if count < 2:
        raise InvalidParameterError("count must be at least 2")
    if len(trajectory) <= count:
        return trajectory
    indices = np.linspace(0, len(trajectory) - 1, count).round().astype(int)
    indices = np.unique(indices)
    return Trajectory(
        trajectory.xs[indices],
        trajectory.ys[indices],
        trajectory.ts[indices],
        trajectory_id=trajectory.trajectory_id,
    )


def resample_by_interval(trajectory: Trajectory, interval: float) -> Trajectory:
    """Keep at most one point per ``interval`` seconds (the first of each window)."""
    if interval <= 0.0:
        raise InvalidParameterError("interval must be positive")
    if len(trajectory) < 2:
        return trajectory
    keep = [0]
    next_time = trajectory.ts[0] + interval
    for index in range(1, len(trajectory)):
        if trajectory.ts[index] >= next_time:
            keep.append(index)
            next_time = trajectory.ts[index] + interval
    if keep[-1] != len(trajectory) - 1:
        keep.append(len(trajectory) - 1)
    return Trajectory(
        trajectory.xs[keep],
        trajectory.ys[keep],
        trajectory.ts[keep],
        trajectory_id=trajectory.trajectory_id,
    )


def concatenate(trajectories: Iterable[Trajectory], *, trajectory_id: str = "") -> Trajectory:
    """Concatenate several trajectories into one (timestamps must already align)."""
    pieces = [t for t in trajectories if len(t) > 0]
    if not pieces:
        return Trajectory.empty(trajectory_id=trajectory_id)
    xs = np.concatenate([t.xs for t in pieces])
    ys = np.concatenate([t.ys for t in pieces])
    ts = np.concatenate([t.ts for t in pieces])
    return Trajectory(xs, ys, ts, trajectory_id=trajectory_id, require_monotonic_time=False)


def translate(trajectory: Trajectory, dx: float, dy: float, dt: float = 0.0) -> Trajectory:
    """Return a translated copy of ``trajectory``."""
    return Trajectory(
        trajectory.xs + dx,
        trajectory.ys + dy,
        trajectory.ts + dt,
        trajectory_id=trajectory.trajectory_id,
    )
