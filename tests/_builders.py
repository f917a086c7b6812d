"""Trajectory builders shared by the test modules.

A regular module rather than part of ``conftest.py``: with ``tests`` and
``benchmarks`` collected in one session, a bare ``from conftest import ...``
resolves to whichever directory's conftest was imported first, while
``_builders`` exists only here.
"""

from __future__ import annotations

from repro import Trajectory

__all__ = ["build_trajectory"]


def build_trajectory(points: list[tuple[float, float]], *, dt: float = 1.0) -> Trajectory:
    """Build a trajectory from ``(x, y)`` pairs with evenly spaced timestamps."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    ts = [i * dt for i in range(len(points))]
    return Trajectory(xs, ys, ts)
