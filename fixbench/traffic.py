"""Seeded input generation for the fix-to-query benchmark.

Every workload replays one :class:`Traffic`: a fleet of device
trajectories, interleaved round-robin into ticks.  Tick ``k`` carries fixes
``[k * rounds_per_tick, (k + 1) * rounds_per_tick)`` of every device that
still has them, so fix ``i`` of any device arrives in tick
``i // rounds_per_tick`` -- the benchmark uses that to date each stored
segment's last covered fix.  The same seed always yields the same traffic,
and :attr:`Traffic.digest` proves it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro import Trajectory, generate_dataset
from repro.geometry import Point
from repro.perf.workloads import IDLE_FLEET_PROFILE, PerfCase, build_idle_fleet

EPSILON = 40.0
"""The error bound every workload simplifies at (the paper's zeta = 40 m)."""

PAPER_PROFILES = ("taxi", "truck", "sercar", "geolife")
"""The dataset profiles of the paper's Figs 12-13."""


@dataclass(frozen=True)
class Scale:
    """Input size of one workload (the tests shrink it)."""

    devices: int
    fixes_per_device: int


SCALES = {
    "taxi-serve": Scale(devices=24, fixes_per_device=3_000),
    "idle-node": Scale(devices=16, fixes_per_device=4_000),
    "paper-batch": Scale(devices=8, fixes_per_device=1_000),
}
"""Default sizes: ``paper-batch`` generates ``devices`` trajectories per profile."""

IDLE_CYCLE = 1_000
"""Fixes in one driving burst plus dwell of the idle-fleet profile."""

ROUNDS_PER_TICK = {"taxi-serve": 1, "idle-node": 256, "paper-batch": 1}
"""Fixes per device per tick: one on the dense taxi stream; on the idle
fleet, 256 per device, so one tick is one 4,096-fix batch for the node
worker and each device's share feeds the block kernels."""


@dataclass
class Traffic:
    """One generated workload input."""

    name: str
    device_ids: list[str]
    trajectories: list[Trajectory]
    rounds_per_tick: int
    ticks: list[list[tuple[str, Point]]] = field(init=False, repr=False)
    tick_times: list[float] = field(init=False, repr=False)
    """The traffic clock after each tick: the newest timestamp delivered so far."""

    def __post_init__(self) -> None:
        points = [list(trajectory) for trajectory in self.trajectories]
        longest = max(len(device_points) for device_points in points)
        self.ticks = []
        for first in range(0, longest, self.rounds_per_tick):
            tick: list[tuple[str, Point]] = []
            for offset in range(first, min(first + self.rounds_per_tick, longest)):
                for device_id, device_points in zip(self.device_ids, points):
                    if offset < len(device_points):
                        tick.append((device_id, device_points[offset]))
            self.ticks.append(tick)
        self.tick_times = []
        clock = float("-inf")
        for tick in self.ticks:
            clock = max(clock, max(point.t for _, point in tick))
            self.tick_times.append(clock)

    @property
    def n_fixes(self) -> int:
        return sum(len(trajectory) for trajectory in self.trajectories)

    @property
    def fixes_per_tick(self) -> int:
        """Fixes in a full tick: one share of ``rounds_per_tick`` per device."""
        return self.rounds_per_tick * len(self.device_ids)

    @property
    def time_range(self) -> tuple[float, float]:
        return (
            min(float(trajectory.ts[0]) for trajectory in self.trajectories),
            max(float(trajectory.ts[-1]) for trajectory in self.trajectories),
        )

    @property
    def time_bucket(self) -> float:
        """Store partition width: a quarter of the traffic's time range.

        Each device then spans about four partitions, so per-device window
        queries have something to prune without the partition count (one
        sidecar rewrite per append) swamping ingest.
        """
        low, high = self.time_range
        return max((high - low) / 4.0, 1.0)

    @property
    def digest(self) -> str:
        """SHA-256 over every device id and its x/y/t columns."""
        sha = hashlib.sha256()
        for device_id, trajectory in zip(self.device_ids, self.trajectories):
            sha.update(device_id.encode())
            for column in (trajectory.xs, trajectory.ys, trajectory.ts):
                sha.update(column.astype("<f8").tobytes())
        return sha.hexdigest()


INSTANCES = 4
"""Traffic instances per run; rounds cycle through them, so the metrics of
one seed pool several inputs instead of hinging on one."""


def generate_pool(workload: str, seed: int, scale: Scale | None = None) -> list[Traffic]:
    """The :data:`INSTANCES` inputs of one run (instance ``i`` is seeded
    ``seed * INSTANCES + i``)."""
    return [generate(workload, seed * INSTANCES + i, scale) for i in range(INSTANCES)]


def pool_digest(pool: list[Traffic]) -> str:
    return hashlib.sha256("".join(t.digest for t in pool).encode()).hexdigest()


def generate(workload: str, seed: int, scale: Scale | None = None) -> Traffic:
    """One seeded input of ``workload``."""
    scale = scale or SCALES[workload]
    if workload == "taxi-serve":
        trajectories = generate_dataset(
            "taxi",
            n_trajectories=scale.devices,
            points_per_trajectory=scale.fixes_per_device,
            seed=seed,
        )
        device_ids = [f"dev-{i:04d}" for i in range(len(trajectories))]
    elif workload == "idle-node":
        n = scale.fixes_per_device
        case = PerfCase(
            "idle-node",
            IDLE_FLEET_PROFILE,
            n_trajectories=scale.devices,
            points_per_trajectory=n + IDLE_CYCLE,
            seed=seed,
            mode="hub",
        )
        # The profile starts every device with a burst; observing device d
        # from a different point of its cycle spreads the bursts (and the
        # segments) over the ticks instead of emitting them all at once.
        trajectories = []
        for d, full in enumerate(build_idle_fleet(case)):
            first = d * IDLE_CYCLE // scale.devices
            trajectories.append(
                Trajectory(
                    full.xs[first : first + n],
                    full.ys[first : first + n],
                    np.arange(n, dtype=float),
                )
            )
        device_ids = [f"dev-{i:04d}" for i in range(len(trajectories))]
    elif workload == "paper-batch":
        trajectories = []
        device_ids = []
        for profile in PAPER_PROFILES:
            fleet = generate_dataset(
                profile,
                n_trajectories=scale.devices,
                points_per_trajectory=scale.fixes_per_device,
                seed=seed,
            )
            trajectories.extend(fleet)
            device_ids.extend(f"{profile}-{i:04d}" for i in range(len(fleet)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Traffic(workload, device_ids, trajectories, ROUNDS_PER_TICK[workload])
