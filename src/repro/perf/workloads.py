"""Seeded synthetic traffic: device fleets and interleaved point logs.

A :class:`PerfCase` names one reproducible fleet: a dataset profile (or
the idle-heavy :data:`IDLE_FLEET_PROFILE`), its size and its seed.
:func:`build_fleet` synthesises it, :func:`interleave_fleet` turns a fleet
into the round-robin ``(device_id, point)`` log a stream hub ingests, and
:func:`build_device_log` does both in one call.  The same seed always
yields the same traffic, so the benchmarks, the tests, the examples and
``repro-traj serve-replay --synthetic`` all replay exactly the inputs they
name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..datasets.generator import generate_dataset
from ..datasets.profiles import get_profile
from ..exceptions import InvalidParameterError
from ..geometry.point import Point
from ..trajectory.model import Trajectory

__all__ = [
    "PerfCase",
    "CASE_MODES",
    "IDLE_FLEET_PROFILE",
    "build_fleet",
    "build_idle_fleet",
    "build_device_log",
    "interleave_fleet",
]

CASE_MODES = ("batch", "hub")
"""Valid values of :attr:`PerfCase.mode`."""

IDLE_FLEET_PROFILE = "idle-fleet"
"""Pseudo-profile name selecting :func:`build_idle_fleet` in a case.

An idle-heavy fleet: short driving bursts separated by long stationary
dwells, during which devices keep reporting at full cadence (half the
dwells re-send the exact last fix — parked hardware — and half jitter
around it by GPS noise).  This is the regime the block-ingest path is built
for: dwell phases form long absorbable runs that the vectorized prefix
kernels consume in one call each, while the paper's dataset profiles
(sparse sampling relative to the error bound) exercise the scalar-backoff side.
"""


@dataclass(frozen=True, slots=True)
class PerfCase:
    """One seeded synthetic fleet.

    ``mode`` names the shape the fleet is consumed in: ``"batch"``, one
    trajectory at a time, or ``"hub"``, one device per trajectory with the
    points interleaved round-robin (:func:`interleave_fleet`).  It does not
    change what :func:`build_fleet` generates.
    """

    name: str
    profile: str
    n_trajectories: int
    points_per_trajectory: int
    seed: int = 2017
    mode: str = "batch"

    def __post_init__(self) -> None:
        if self.mode not in CASE_MODES:
            raise InvalidParameterError(
                f"case mode must be one of {CASE_MODES}, got {self.mode!r}"
            )
        for size in ("n_trajectories", "points_per_trajectory"):
            if getattr(self, size) < 1:
                raise InvalidParameterError(
                    f"case {size} must be at least 1, got {getattr(self, size)}"
                )


_IDLE_MOVING_POINTS = 50
_IDLE_DWELL_POINTS = 950
_IDLE_SPEED = 9.0
_IDLE_NOISE = 1.0
_IDLE_JITTER = 0.5


def build_idle_fleet(case: PerfCase) -> list[Trajectory]:
    """Synthesise the (seeded, deterministic) idle-heavy fleet of one case."""
    fleet: list[Trajectory] = []
    for index in range(case.n_trajectories):
        rng = np.random.default_rng((case.seed, index))
        n = case.points_per_trajectory
        xs = np.empty(n)
        ys = np.empty(n)
        x = y = 0.0
        produced = 0
        cycle = 0
        while produced < n:
            heading = rng.uniform(0.0, 2.0 * math.pi)
            for _ in range(min(_IDLE_MOVING_POINTS, n - produced)):
                x += _IDLE_SPEED * math.cos(heading) + rng.normal(0.0, _IDLE_NOISE)
                y += _IDLE_SPEED * math.sin(heading) + rng.normal(0.0, _IDLE_NOISE)
                xs[produced] = x
                ys[produced] = y
                produced += 1
            exact = cycle % 2 == 0
            for _ in range(min(_IDLE_DWELL_POINTS, n - produced)):
                if exact:
                    xs[produced] = x
                    ys[produced] = y
                else:
                    xs[produced] = x + rng.normal(0.0, _IDLE_JITTER)
                    ys[produced] = y + rng.normal(0.0, _IDLE_JITTER)
                produced += 1
            cycle += 1
        fleet.append(
            Trajectory(xs, ys, np.arange(n, dtype=float), trajectory_id=f"idle-{index:04d}")
        )
    return fleet


def build_fleet(case: PerfCase) -> list[Trajectory]:
    """Synthesise the (seeded, deterministic) fleet of one case."""
    if case.profile == IDLE_FLEET_PROFILE:
        return build_idle_fleet(case)
    return generate_dataset(
        get_profile(case.profile),
        n_trajectories=case.n_trajectories,
        points_per_trajectory=case.points_per_trajectory,
        seed=case.seed,
    )


def interleave_fleet(fleet: list[Trajectory]) -> list[tuple[str, Point]]:
    """Round-robin interleave a fleet into ``(device_id, point)`` records.

    Device ``i`` of the fleet is named ``dev-{i:04d}``; record order models
    concurrent devices reporting at the same cadence (one fix per device per
    round), which is the arrival pattern a stream hub must absorb.
    """
    streams = [(f"dev-{i:04d}", iter(trajectory)) for i, trajectory in enumerate(fleet)]
    records: list[tuple[str, Point]] = []
    while streams:
        still_alive: list[tuple[str, object]] = []
        for device_id, stream in streams:
            try:
                records.append((device_id, next(stream)))
            except StopIteration:
                continue
            still_alive.append((device_id, stream))
        streams = still_alive
    return records


def build_device_log(
    profile: str = "taxi",
    n_devices: int = 64,
    points_per_device: int = 200,
    *,
    seed: int = 2017,
) -> list[tuple[str, Point]]:
    """Seeded multi-device point log: the hub's canonical synthetic traffic.

    This is the single generator behind the hub benchmarks, the hub test
    fixture and ``repro-traj serve-replay --synthetic`` — all three replay
    exactly this traffic shape, so numbers and behaviours line up.
    """
    case = PerfCase(
        name="device-log",
        profile=profile,
        n_trajectories=n_devices,
        points_per_trajectory=points_per_device,
        seed=seed,
        mode="hub",
    )
    return interleave_fleet(build_fleet(case))
