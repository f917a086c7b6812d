"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from _builders import build_trajectory

from repro import Point, Trajectory
from repro.datasets import generate_trajectory
from repro.perf.workloads import build_device_log


@pytest.fixture
def straight_line() -> Trajectory:
    """A 100-point noiseless straight line along the x-axis (spacing 10 m)."""
    xs = np.arange(100, dtype=float) * 10.0
    ys = np.zeros(100)
    return Trajectory(xs, ys, np.arange(100, dtype=float))


@pytest.fixture
def l_shape() -> Trajectory:
    """An L-shaped route whose corner apex falls between two samples."""
    leg_a = [(x, 0.0) for x in np.arange(0.0, 1960.0, 390.0)]
    leg_b = [(2000.0, y) for y in np.arange(340.0, 2400.0, 390.0)]
    return build_trajectory(leg_a + leg_b, dt=60.0)


@pytest.fixture
def zigzag() -> Trajectory:
    """A square-wave route producing many sharp turns."""
    points: list[tuple[float, float]] = []
    x = 0.0
    for cycle in range(10):
        y = 0.0 if cycle % 2 == 0 else 300.0
        for _ in range(5):
            points.append((x, y))
            x += 50.0
    return build_trajectory(points, dt=5.0)


@pytest.fixture
def noisy_walk() -> Trajectory:
    """A moderately noisy correlated random walk (reproducible)."""
    rng = np.random.default_rng(42)
    steps = rng.normal(0.0, 25.0, size=(400, 2))
    xy = np.cumsum(steps, axis=0)
    return Trajectory(xy[:, 0], xy[:, 1], np.arange(400, dtype=float))


@pytest.fixture(scope="session")
def taxi_trajectory() -> Trajectory:
    """A small Taxi-profile synthetic trajectory (shared across tests)."""
    return generate_trajectory("taxi", 1500, seed=7)


@pytest.fixture(scope="session")
def sercar_trajectory() -> Trajectory:
    """A small SerCar-profile synthetic trajectory (shared across tests)."""
    return generate_trajectory("sercar", 1500, seed=7)


@pytest.fixture(scope="session")
def device_point_log() -> list[tuple[str, Point]]:
    """A seeded multi-device point log (shared across the hub tests).

    Generated by :func:`repro.perf.workloads.build_device_log` — the same
    generator the hub benchmarks replay — so tests and benchmarks
    exercise an identical traffic shape: one device per trajectory, fixes
    interleaved round-robin across the fleet.
    """
    return build_device_log("taxi", n_devices=100, points_per_device=120, seed=5)


@pytest.fixture
def single_point() -> Trajectory:
    """A degenerate single-point trajectory."""
    return Trajectory([3.0], [4.0], [0.0])


@pytest.fixture
def two_points() -> Trajectory:
    """A degenerate two-point trajectory."""
    return build_trajectory([(0.0, 0.0), (100.0, 50.0)])
