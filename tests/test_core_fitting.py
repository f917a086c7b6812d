"""Unit tests for the fitting function F (paper Section 4.1, Example 4)."""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from _reference_fitting import ReferenceFittingState
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import OperbConfig, Point
from repro.api import Simplifier
from repro.core.fitting import FittingState, PointOutcome, rotation_sign, zone_index
from repro.datasets import generate_dataset
from repro.geometry import kernels
from repro.geometry.kernels import kernel_backend


class TestZoneIndex:
    def test_zone_boundaries(self):
        # Zone Z_j covers (j*eps/2 - eps/4, j*eps/2 + eps/4].
        eps = 4.0
        assert zone_index(0.0, eps) == 0
        assert zone_index(1.0, eps) == 0  # exactly eps/4 -> still zone 0
        assert zone_index(1.01, eps) == 1
        assert zone_index(3.0, eps) == 1  # 3 = eps/2 + eps/4 boundary
        assert zone_index(3.01, eps) == 2
        assert zone_index(10.0, eps) == 5

    def test_zone_index_never_negative(self):
        assert zone_index(0.0, 1.0) == 0


class TestRotationSign:
    def test_point_slightly_counterclockwise(self):
        assert rotation_sign(0.3, 0.0) == 1

    def test_point_slightly_clockwise(self):
        assert rotation_sign(2 * math.pi - 0.3, 0.0) == -1

    def test_point_behind_but_ccw_of_opposite_ray(self):
        # delta in [pi, 3*pi/2) -> +1 (rotate the *line* counter-clockwise).
        assert rotation_sign(math.pi + 0.2, 0.0) == 1

    def test_point_behind_but_cw_of_opposite_ray(self):
        # delta in (pi/2, pi) -> -1.
        assert rotation_sign(math.pi - 0.2, 0.0) == -1

    def test_rotation_moves_line_closer_to_point(self):
        # The sign function must always rotate the fitted line towards the
        # line through the anchor and the point (paper Section 4.1).
        anchor = Point(0.0, 0.0)
        for target_angle in (0.3, 1.2, 2.0, 3.0, 4.0, 5.5):
            point = Point(10.0 * math.cos(target_angle), 10.0 * math.sin(target_angle))
            line_theta = 0.0
            sign = rotation_sign(target_angle, line_theta)
            before = abs(math.sin(target_angle - line_theta)) * 10.0
            after_theta = line_theta + sign * 0.05
            after = abs(
                math.cos(after_theta) * point.y - math.sin(after_theta) * point.x
            )
            assert after < before


class TestFittingStateExample4:
    """Recreate the structure of the paper's Example 4 with a raw config."""

    def setup_method(self):
        self.eps = 4.0
        self.config = OperbConfig.raw(self.eps)
        self.state = FittingState(Point(0.0, 0.0), self.config)

    def test_point_inside_zone_zero_is_inactive(self):
        outcome = self.state.observe(*Point(0.5, 0.0))
        assert outcome is PointOutcome.ABSORBED
        assert not self.state.has_direction

    def test_first_active_point_sets_direction(self):
        self.state.observe(*Point(0.5, 0.0))
        outcome = self.state.observe(*Point(2.0, 0.0))  # |R| = 2 > eps/4 -> zone 1
        assert outcome is PointOutcome.ACTIVE
        assert self.state.has_direction
        assert self.state.length == pytest.approx(1 * self.eps / 2)
        assert self.state.theta == pytest.approx(0.0)

    def test_inactive_point_after_direction_keeps_segment(self):
        self.state.observe(*Point(2.0, 0.0))
        outcome = self.state.observe(*Point(2.2, 0.1))
        assert outcome is PointOutcome.ABSORBED
        assert self.state.length == pytest.approx(2.0)

    def test_active_point_advances_zone_and_rotates(self):
        self.state.observe(*Point(2.0, 0.0))
        outcome = self.state.observe(*Point(4.0, 0.5))
        assert outcome is PointOutcome.ACTIVE
        assert self.state.length == pytest.approx(2 * self.eps / 2)
        assert 0.0 < self.state.theta < math.pi / 4

    def test_far_off_line_point_is_violation(self):
        self.state.observe(*Point(2.0, 0.0))
        self.state.observe(*Point(4.0, 0.0))
        outcome = self.state.observe(*Point(6.0, 5.0))  # deviation 5 > eps/2
        assert outcome is PointOutcome.VIOLATION

    def test_inactive_point_far_from_line_is_violation(self):
        self.state.observe(*Point(10.0, 0.0))
        outcome = self.state.observe(*Point(5.0, 4.0))  # inactive but 4 > eps/2
        assert outcome is PointOutcome.VIOLATION

    def test_constant_work_per_point(self):
        for i in range(100):
            self.state.observe(*Point(float(i), 0.0))
        # At most three distance computations per observed point.
        assert self.state.stats.distance_computations <= 3 * self.state.stats.points_observed


class TestFittingAngleDrift:
    def test_angle_drift_is_bounded(self):
        """Lemma 3: total rotation of L is bounded by ~0.8123 rad."""
        eps = 2.0
        config = OperbConfig.raw(eps)
        state = FittingState(Point(0.0, 0.0), config)
        initial_theta = None
        # Feed a stepwise spiral-ish trajectory that always deviates by eps/2.
        radius = 0.0
        theta = 0.0
        for i in range(1, 200):
            radius = i * eps / 2
            theta += math.asin(min(1.0, (eps / 2) / radius)) * 0.9
            point = Point(radius * math.cos(theta), radius * math.sin(theta))
            outcome = state.observe(*point)
            if outcome is PointOutcome.VIOLATION:
                break
            if state.has_direction and initial_theta is None:
                initial_theta = state.theta
        assert initial_theta is not None
        drift = abs(state.theta - initial_theta)
        drift = min(drift, 2 * math.pi - drift)
        assert drift < 0.8123 + 0.1


# ---------------------------------------------------------------------- #
# Differential oracle: the flattened float FittingState against the frozen
# helper-per-step reference, fix by fix (outcomes and snapshots).
# ---------------------------------------------------------------------- #
_FLAG_NAMES = (
    "opt_first_active_threshold",
    "opt_two_sided_deviation",
    "opt_aggressive_rotation",
    "opt_missing_zone_compensation",
    "opt_absorb_trailing_points",
)
_ALL_FLAG_COMBINATIONS = [
    dict(zip(_FLAG_NAMES, bits)) for bits in itertools.product((False, True), repeat=5)
]


def _state_key(state) -> str:
    """The exact JSON of a fitting state's snapshot.

    ``repr`` round-trips floats, so the string tells apart every bit of
    every value (the sign of zero included, NaN spelled ``NaN``) while
    leaving the production state free to hold its fields in any form.
    """
    return json.dumps(state.snapshot(), sort_keys=True)


@st.composite
def _fitting_streams(draw):
    """An anchor, an error bound and a stream of fixes relative to the anchor.

    Besides free random walks the stream mixes in repeated fixes, fixes on
    the anchor itself (a zero radial vector), fixes at radial distances
    exactly on zone boundaries ``j*eps/2 +- eps/4`` along the axes, U-turns
    that fold the walk back through or towards the anchor, and NaN fixes.
    """
    epsilon = draw(st.sampled_from([1.0, 4.0, 10.0, 40.0]))
    ax = draw(st.integers(-4000, 4000)) * 0.25
    ay = draw(st.integers(-4000, 4000)) * 0.25
    anchor = Point(ax, ay, 0.0)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("walk"),
                    st.floats(-2.0, 2.0, allow_nan=False),
                    st.floats(-2.0, 2.0, allow_nan=False),
                ),
                st.tuples(st.just("repeat")),
                st.tuples(st.just("anchor")),
                st.tuples(
                    st.just("zone"),
                    st.integers(0, 12),
                    st.sampled_from([-1.0, 1.0]),
                    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]),
                ),
                st.tuples(st.just("uturn"), st.sampled_from([0.5, 1.0, 1.5, 2.0])),
                st.tuples(st.just("nan"), st.sampled_from(["x", "y", "xy"])),
            ),
            min_size=1,
            max_size=60,
        )
    )
    points = []
    previous = anchor
    for t, step in enumerate(steps, start=1):
        kind = step[0]
        if kind == "walk":
            x = previous.x + step[1] * epsilon
            y = previous.y + step[2] * epsilon
        elif kind == "repeat":
            x, y = previous.x, previous.y
        elif kind == "anchor":
            x, y = ax, ay
        elif kind == "zone":
            _, j, side, (ux, uy) = step
            radius = j * epsilon / 2.0 + side * epsilon / 4.0
            x = ax + ux * radius
            y = ay + uy * radius
        elif kind == "uturn":
            x = previous.x + step[1] * (ax - previous.x)
            y = previous.y + step[1] * (ay - previous.y)
        else:
            # A corrupt fix; the stream continues from the last valid one.
            nan = math.nan
            points.append(
                Point(nan if "x" in step[1] else previous.x, nan if "y" in step[1] else previous.y)
            )
            continue
        previous = Point(x, y, float(t))
        points.append(previous)
    return anchor, epsilon, points


class TestFittingStateMatchesReference:
    @pytest.mark.parametrize(
        "flags",
        _ALL_FLAG_COMBINATIONS,
        ids=["".join("1" if on else "0" for on in c.values()) for c in _ALL_FLAG_COMBINATIONS],
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=_fitting_streams())
    def test_every_fix_matches_reference(self, flags, stream):
        anchor, epsilon, points = stream
        config = OperbConfig(epsilon=epsilon, **flags)
        state = FittingState(anchor, config)
        reference = ReferenceFittingState(anchor, config)
        for point in points:
            outcome = state.observe(*point)
            expected = reference.observe(point)
            assert outcome is expected
            assert _state_key(state) == _state_key(reference)
            if outcome is PointOutcome.VIOLATION:
                # Mirror the OPERB driver: the breaking fix opens a fresh
                # segment anchored at the last active point (or the anchor).
                restart = reference.last_active_point or reference.anchor
                state = FittingState(restart, config)
                reference = ReferenceFittingState(restart, config)
                assert state.observe(*point) is reference.observe(point)
                assert _state_key(state) == _state_key(reference)


class TestFittingPrefixKernelMatchesObserve:
    """The block kernel absorbs exactly the run the scalar ``observe`` absorbs."""

    @pytest.mark.parametrize("backend", ["vectorized", "scalar"])
    @pytest.mark.parametrize("two_sided", [False, True])
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=_fitting_streams())
    def test_prefix_matches_scalar_run(self, backend, two_sided, stream):
        anchor, epsilon, points = stream
        # The vectorized kernel stops early at NaN fixes by design (the
        # scalar replay then decides them), so compare on finite streams.
        points = [p for p in points if not (math.isnan(p.x) or math.isnan(p.y))]
        config = OperbConfig(epsilon=epsilon, opt_two_sided_deviation=two_sided)
        state = FittingState(anchor, config)
        xs = np.array([p.x for p in points])
        ys = np.array([p.y for p in points])
        for start, point in enumerate(points):
            if state.has_direction:
                with kernel_backend(backend):
                    count, d_plus, d_minus = kernels.operb_fitting_prefix(
                        xs[start:],
                        ys[start:],
                        anchor.x,
                        anchor.y,
                        state.theta,
                        state.last_active_theta,
                        state.length,
                        epsilon,
                        config.quarter_epsilon,
                        config.half_epsilon,
                        two_sided,
                        state.d_plus_max,
                        state.d_minus_max,
                    )
                probe = FittingState.from_snapshot(state.snapshot(), config)
                expected = (0, state.d_plus_max.hex(), state.d_minus_max.hex())
                for n, later in enumerate(points[start:], start=1):
                    if probe.observe(*later) is not PointOutcome.ABSORBED:
                        break
                    expected = (n, probe.d_plus_max.hex(), probe.d_minus_max.hex())
                assert (count, d_plus.hex(), d_minus.hex()) == expected
            if state.observe(*point) is PointOutcome.VIOLATION:
                return


# ---------------------------------------------------------------------- #
# Decision pin: segment indices of the paper-profile runs
# ---------------------------------------------------------------------- #
_PINNED_INDEX_DIGESTS = {
    "operb": "880c6e2c2059f6d0db32689310b12b963aba46cf92749d6909da654e3f0aab07",
    "operb-a": "ab564395250f21b8af010eb98749a4c59bad176b9cbc4a3db7951b631003017a",
    "raw-operb": "db0fc2e75dd5099f230f7aa562128a5528c6a083106ed8a40ed88c1db1d319ec",
    "raw-operb-a": "05748c9d6242c6cbd4f8b5f51eec83e743a8a2845e96073c5c6056d25f89c317",
}
"""Computed with the helper-per-step fitting function, before flattening."""


def _index_digest(algorithm: str) -> str:
    """SHA-256 over the index/flag tuples of every segment of one algorithm.

    Covers the four paper profiles, zeta in {5, 10, 40, 100} and two seeds.
    Only decisions are hashed (indices, point counts, patch flags), never
    coordinates, so the digest does not depend on libm's last ulp.
    """
    digest = hashlib.sha256()
    for seed in (1, 2):
        for profile in ("taxi", "truck", "sercar", "geolife"):
            fleet = generate_dataset(
                profile, n_trajectories=2, points_per_trajectory=400, seed=seed
            )
            for epsilon in (5.0, 10.0, 40.0, 100.0):
                simplifier = Simplifier(algorithm, epsilon)
                for trajectory in fleet:
                    for seg in simplifier.run(trajectory).segments:
                        digest.update(
                            repr(
                                (
                                    seg.first_index,
                                    seg.last_index,
                                    seg.covered_last_index,
                                    seg.point_count,
                                    seg.patched_start,
                                    seg.patched_end,
                                )
                            ).encode()
                        )
    return digest.hexdigest()


@pytest.mark.parametrize("algorithm", ["operb", "operb-a", "raw-operb", "raw-operb-a"])
def test_segment_index_digest_is_pinned(algorithm):
    assert _index_digest(algorithm) == _PINNED_INDEX_DIGESTS[algorithm]
