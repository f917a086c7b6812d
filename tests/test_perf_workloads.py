"""Tests for the seeded traffic generators (:mod:`repro.perf.workloads`)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, UnknownProfileError
from repro.perf.workloads import (
    IDLE_FLEET_PROFILE,
    PerfCase,
    build_device_log,
    build_fleet,
    build_idle_fleet,
    interleave_fleet,
)
from repro.trajectory.model import Trajectory


def _case(profile: str = "taxi", n: int = 3, points: int = 120, **kwargs) -> PerfCase:
    return PerfCase("case", profile, n_trajectories=n, points_per_trajectory=points, **kwargs)


class TestPerfCase:
    @pytest.mark.parametrize("mode", ["batch", "hub"])
    def test_valid_modes(self, mode):
        assert _case(mode=mode).mode == mode

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="mode"):
            _case(mode="warp")

    @pytest.mark.parametrize("size", ["n_trajectories", "points_per_trajectory"])
    def test_empty_sizes_are_rejected(self, size):
        fields = {"n_trajectories": 2, "points_per_trajectory": 10, size: 0}
        with pytest.raises(InvalidParameterError, match=size):
            PerfCase("bad", "taxi", **fields)


class TestBuildFleet:
    @pytest.mark.parametrize("profile", ["taxi", "truck", "sercar", "geolife"])
    def test_is_deterministic_per_seed(self, profile):
        first = build_fleet(_case(profile))
        assert first == build_fleet(_case(profile))
        assert len(first) == 3
        assert first != build_fleet(_case(profile, seed=1))

    def test_idle_profile_builds_the_idle_fleet(self):
        case = _case(IDLE_FLEET_PROFILE)
        assert build_fleet(case) == build_idle_fleet(case)

    def test_unknown_profile_is_rejected(self):
        with pytest.raises(UnknownProfileError, match="'warp'"):
            build_fleet(_case("warp"))


class TestIdleFleet:
    def test_is_deterministic_with_one_cadence(self):
        case = _case(IDLE_FLEET_PROFILE, n=2, points=2_500)
        first = build_idle_fleet(case)
        assert first == build_idle_fleet(case)
        assert [trajectory.trajectory_id for trajectory in first] == [
            "idle-0000",
            "idle-0001",
        ]
        for trajectory in first:
            np.testing.assert_array_equal(trajectory.ts, np.arange(2_500, dtype=float))
        assert not np.array_equal(first[0].xs, first[1].xs)

    def test_dwells_alternate_between_parked_and_jittering(self):
        (trajectory,) = build_idle_fleet(_case(IDLE_FLEET_PROFILE, n=1, points=2_000))
        xs, ys = trajectory.xs, trajectory.ys
        # Cycle 0: a 50-fix burst, then 950 fixes re-sending the last one.
        assert np.all(xs[50:1_000] == xs[49]) and np.all(ys[50:1_000] == ys[49])
        # Cycle 1: a burst moving ~9 m per fix, then GPS jitter around its end.
        assert math.hypot(xs[1_049] - xs[999], ys[1_049] - ys[999]) > 100.0
        jitter = np.hypot(xs[1_050:] - xs[1_049], ys[1_050:] - ys[1_049])
        assert np.all(jitter > 0.0) and np.all(jitter < 5.0)


class TestInterleave:
    def test_round_robin_one_fix_per_device_per_round(self):
        fleet = build_fleet(_case("taxi", n=4, points=60))
        records = interleave_fleet(fleet)
        assert len(records) == sum(len(trajectory) for trajectory in fleet)
        shortest = min(len(trajectory) for trajectory in fleet)
        assert [device for device, _ in records[: 4 * shortest]] == [
            f"dev-{i:04d}" for i in range(4)
        ] * shortest

    def test_shorter_streams_drop_out_and_order_holds(self):
        fleet = [
            Trajectory([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 1.0, 2.0]),
            Trajectory([5.0], [5.0], [0.0]),
            Trajectory([9.0, 8.0], [1.0, 1.0], [0.0, 1.0]),
        ]
        records = interleave_fleet(fleet)
        assert [(device, point.x) for device, point in records] == [
            ("dev-0000", 0.0),
            ("dev-0001", 5.0),
            ("dev-0002", 9.0),
            ("dev-0000", 1.0),
            ("dev-0002", 8.0),
            ("dev-0000", 2.0),
        ]

    def test_empty_fleet_gives_an_empty_log(self):
        assert interleave_fleet([]) == []


class TestDeviceLog:
    def test_is_deterministic_per_seed(self):
        first = build_device_log("taxi", 6, 40, seed=9)
        assert first == build_device_log("taxi", 6, 40, seed=9)
        assert first != build_device_log("taxi", 6, 40, seed=10)

    def test_is_the_interleaved_fleet(self):
        case = PerfCase("log", "sercar", n_trajectories=5, points_per_trajectory=30, seed=4)
        log = build_device_log("sercar", 5, 30, seed=4)
        assert log == interleave_fleet(build_fleet(case))
        assert {device for device, _ in log} == {f"dev-{i:04d}" for i in range(5)}
