"""Unit tests for the window-based baselines: OPW, BQS and FBQS."""

from __future__ import annotations

import pytest

from repro import Point, SimplificationError
from repro.algorithms.bqs import BoundedQuadrantWindow, bqs
from repro.algorithms.fbqs import FBQSSimplifier, fbqs
from repro.algorithms.opw import opw, opw_tr
from repro.geometry.distance import point_to_line_distance
from repro.metrics import check_error_bound, max_error

from _builders import build_trajectory


class TestOpw:
    def test_straight_line_single_segment(self, straight_line):
        assert opw(straight_line, 5.0).n_segments == 1

    def test_error_bound(self, noisy_walk):
        representation = opw(noisy_walk, 20.0)
        assert check_error_bound(noisy_walk, representation, 20.0)
        assert max_error(noisy_walk, representation) <= 20.0 + 1e-9

    def test_opw_tr_uses_sed(self, noisy_walk):
        representation = opw_tr(noisy_walk, 20.0)
        assert representation.algorithm == "opw-tr"
        assert representation.n_segments >= 1

    def test_trivial_trajectories(self, single_point, two_points):
        assert opw(single_point, 5.0).n_segments == 0
        assert opw(two_points, 5.0).n_segments == 1


class TestBoundedQuadrantWindow:
    def test_upper_bound_dominates_actual_distances(self):
        anchor = Point(0.0, 0.0)
        window = BoundedQuadrantWindow(anchor)
        buffered = [Point(10.0, 3.0), Point(20.0, -4.0), Point(-15.0, 6.0), Point(5.0, 18.0)]
        for point in buffered:
            window.add(point)
        candidate = Point(30.0, 5.0)
        _, upper = window.distance_bounds(candidate)
        actual = max(point_to_line_distance(p, anchor, candidate) for p in buffered)
        assert upper + 1e-9 >= actual

    def test_lower_bound_below_upper_bound(self):
        window = BoundedQuadrantWindow(Point(0.0, 0.0))
        for point in [Point(5.0, 1.0), Point(9.0, -2.0), Point(12.0, 4.0)]:
            window.add(point)
        lower, upper = window.distance_bounds(Point(20.0, 0.0))
        assert lower <= upper + 1e-9

    def test_empty_window_bounds_are_zero(self):
        window = BoundedQuadrantWindow(Point(0.0, 0.0))
        assert window.distance_bounds(Point(10.0, 0.0)) == (0.0, 0.0)


class TestBqsAndFbqs:
    def test_bqs_matches_opw_decisions(self, noisy_walk, zigzag):
        # BQS is an accelerated but exact version of the open-window scan, so
        # its output must match OPW's segment boundaries.
        for trajectory in (noisy_walk, zigzag):
            assert [
                (s.first_index, s.last_index) for s in bqs(trajectory, 25.0).segments
            ] == [(s.first_index, s.last_index) for s in opw(trajectory, 25.0).segments]

    def test_fbqs_error_bound(self, noisy_walk, taxi_trajectory):
        for trajectory, epsilon in ((noisy_walk, 20.0), (taxi_trajectory, 40.0)):
            representation = fbqs(trajectory, epsilon)
            assert check_error_bound(trajectory, representation, epsilon)
            assert max_error(trajectory, representation) <= epsilon + 1e-9

    def test_fbqs_never_fewer_segments_than_bqs(self, noisy_walk):
        # FBQS closes windows conservatively, so it cannot out-compress BQS.
        assert fbqs(noisy_walk, 25.0).n_segments >= bqs(noisy_walk, 25.0).n_segments

    def test_fbqs_straight_line(self, straight_line):
        assert fbqs(straight_line, 5.0).n_segments == 1

    def test_fbqs_streaming_contract(self):
        simplifier = FBQSSimplifier(10.0)
        simplifier.push(Point(0.0, 0.0, 0.0))
        simplifier.finish()
        with pytest.raises(SimplificationError):
            simplifier.push(Point(1.0, 1.0, 1.0))

    def test_fbqs_streaming_matches_batch(self, taxi_trajectory):
        batch = fbqs(taxi_trajectory, 40.0)
        streaming = FBQSSimplifier(40.0)
        segments = []
        for point in taxi_trajectory:
            segments.extend(streaming.push(point))
        segments.extend(streaming.finish())
        assert len(segments) == batch.n_segments

    def test_duplicate_points_handled(self):
        t = build_trajectory([(0.0, 0.0)] * 5 + [(100.0, 0.0), (200.0, 5.0), (300.0, 0.0)])
        representation = fbqs(t, 10.0)
        assert representation.n_segments >= 1
        assert check_error_bound(t, representation, 10.0)
