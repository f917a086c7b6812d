"""Unit tests for the Douglas-Peucker family."""

from __future__ import annotations

import numpy as np
import pytest

from repro import InvalidParameterError, Trajectory
from repro.algorithms.douglas_peucker import douglas_peucker, douglas_peucker_sed, dp_retained_indices
from repro.metrics import check_error_bound, max_error

from _builders import build_trajectory


class TestRetainedIndices:
    def test_straight_line_keeps_only_endpoints(self, straight_line):
        assert dp_retained_indices(straight_line, 1.0) == [0, len(straight_line) - 1]

    def test_spike_is_retained(self):
        t = build_trajectory([(0.0, 0.0), (10.0, 0.0), (20.0, 50.0), (30.0, 0.0), (40.0, 0.0)])
        retained = dp_retained_indices(t, 5.0)
        assert 2 in retained

    def test_endpoints_always_retained(self, noisy_walk):
        retained = dp_retained_indices(noisy_walk, 20.0)
        assert retained[0] == 0
        assert retained[-1] == len(noisy_walk) - 1

    def test_epsilon_must_be_positive(self, straight_line):
        with pytest.raises(InvalidParameterError):
            dp_retained_indices(straight_line, 0.0)

    def test_smaller_epsilon_retains_more_points(self, noisy_walk):
        fine = dp_retained_indices(noisy_walk, 5.0)
        coarse = dp_retained_indices(noisy_walk, 50.0)
        assert len(fine) >= len(coarse)


class TestDouglasPeucker:
    def test_error_bound_and_structure(self, noisy_walk):
        representation = douglas_peucker(noisy_walk, 20.0)
        assert representation.algorithm == "dp"
        assert check_error_bound(noisy_walk, representation, 20.0)
        representation.validate_continuity()

    def test_containing_segment_error_bounded(self, noisy_walk):
        representation = douglas_peucker(noisy_walk, 20.0)
        assert max_error(noisy_walk, representation) <= 20.0 + 1e-9

    def test_trivial_trajectories(self, single_point, two_points):
        assert douglas_peucker(single_point, 5.0).n_segments == 0
        assert douglas_peucker(two_points, 5.0).n_segments == 1

    def test_matches_known_example_shape(self):
        # A coarse zigzag: DP at a loose bound keeps just the two ends, at a
        # tight bound it must keep the interior extremes too.
        t = build_trajectory([(0.0, 0.0), (10.0, 8.0), (20.0, -8.0), (30.0, 0.0)])
        assert douglas_peucker(t, 20.0).n_segments == 1
        assert douglas_peucker(t, 2.0).n_segments == 3

    def test_deep_recursion_does_not_overflow(self):
        # Highly oscillating data forces many splits; the iterative
        # implementation must not hit Python's recursion limit.
        n = 5000
        xs = np.arange(n, dtype=float)
        ys = np.where(np.arange(n) % 2 == 0, 0.0, 100.0)
        t = Trajectory(xs, ys, xs)
        representation = douglas_peucker(t, 1.0)
        assert representation.n_segments == n - 1


class TestDouglasPeuckerSed:
    def test_sed_variant_is_error_bounded_in_sed(self, noisy_walk):
        representation = douglas_peucker_sed(noisy_walk, 20.0)
        assert representation.algorithm == "dp-sed"
        # The SED of every point w.r.t. its containing segment is bounded.
        from repro.geometry.distance import synchronized_euclidean_distance

        for segment in representation.segments:
            for index in range(segment.first_index, segment.last_index + 1):
                point = noisy_walk[index]
                assert (
                    synchronized_euclidean_distance(point, segment.start, segment.end)
                    <= 20.0 + 1e-9
                )

    def test_sed_retains_at_least_as_many_points_for_irregular_time(self):
        # With very irregular timestamps the SED constraint is stricter than
        # the perpendicular one for on-line points.
        xs = np.linspace(0.0, 100.0, 11)
        ys = np.zeros(11)
        ts = np.array([0, 1, 2, 3, 4, 50, 96, 97, 98, 99, 100], dtype=float)
        t = Trajectory(xs, ys, ts)
        sed = douglas_peucker_sed(t, 5.0)
        plain = douglas_peucker(t, 5.0)
        assert sed.n_segments >= plain.n_segments
