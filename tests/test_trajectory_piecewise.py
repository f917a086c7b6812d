"""Unit tests for piecewise representations and segment records."""

from __future__ import annotations

import pytest

from repro import InvalidTrajectoryError, Point
from repro.trajectory.piecewise import PiecewiseRepresentation, SegmentRecord

from _builders import build_trajectory


@pytest.fixture
def trajectory():
    return build_trajectory([(0.0, 0.0), (10.0, 0.0), (20.0, 5.0), (30.0, 5.0), (40.0, 0.0)])


class TestSegmentRecord:
    def test_default_point_count_from_indices(self, trajectory):
        record = SegmentRecord.from_indices(trajectory, 0, 3)
        assert record.point_count == 4
        assert record.covered_last_index == 3

    def test_anomalous_detection(self, trajectory):
        assert SegmentRecord.from_indices(trajectory, 1, 2).is_anomalous
        assert not SegmentRecord.from_indices(trajectory, 0, 3).is_anomalous

    def test_length(self, trajectory):
        assert SegmentRecord.from_indices(trajectory, 0, 1).length == pytest.approx(10.0)

    def test_covers_index_includes_absorbed_points(self, trajectory):
        record = SegmentRecord.from_indices(trajectory, 0, 2).with_covered_last_index(4)
        assert record.covers_index(3)
        assert record.covers_index(4)
        assert not record.covers_index(5)

    def test_with_start_marks_patched(self, trajectory):
        record = SegmentRecord.from_indices(trajectory, 0, 2)
        patched = record.with_start(Point(-5.0, 0.0))
        assert patched.patched_start
        assert patched.start == Point(-5.0, 0.0)

    def test_with_point_count(self, trajectory):
        assert SegmentRecord.from_indices(trajectory, 0, 2).with_point_count(7).point_count == 7


class TestPiecewiseRepresentation:
    def test_from_retained_indices_always_includes_ends(self, trajectory):
        representation = PiecewiseRepresentation.from_retained_indices(trajectory, [2])
        assert representation.n_segments == 2
        assert representation.segments[0].first_index == 0
        assert representation.segments[-1].last_index == len(trajectory) - 1

    def test_retained_points(self, trajectory):
        representation = PiecewiseRepresentation.from_retained_indices(trajectory, [0, 2, 4])
        points = representation.retained_points
        assert len(points) == 3
        assert points[0] == trajectory[0]
        assert points[-1] == trajectory[4]

    def test_compression_ratio(self, trajectory):
        representation = PiecewiseRepresentation.from_retained_indices(trajectory, [0, 2, 4])
        assert representation.compression_ratio() == pytest.approx(2 / 5)

    def test_segments_covering_index(self, trajectory):
        representation = PiecewiseRepresentation.from_retained_indices(trajectory, [0, 2, 4])
        covering = representation.segments_covering_index(2)
        assert len(covering) == 2  # boundary point shared by both segments

    def test_anomalous_segments_and_counts(self, trajectory):
        representation = PiecewiseRepresentation.from_retained_indices(trajectory, [0, 1, 2, 4])
        assert len(representation.anomalous_segments()) == 2
        assert representation.point_counts() == [2, 2, 3]

    def test_continuity_validation_passes(self, trajectory):
        representation = PiecewiseRepresentation.from_retained_indices(trajectory, [0, 2, 4])
        representation.validate_continuity()

    def test_continuity_validation_fails_on_gap(self, trajectory):
        broken = PiecewiseRepresentation(
            segments=[
                SegmentRecord.from_indices(trajectory, 0, 1),
                SegmentRecord.from_indices(trajectory, 2, 4),
            ],
            source_size=len(trajectory),
        )
        with pytest.raises(InvalidTrajectoryError):
            broken.validate_continuity()

    def test_container_protocol(self, trajectory):
        representation = PiecewiseRepresentation.from_retained_indices(trajectory, [0, 2, 4])
        assert len(representation) == 2
        assert list(iter(representation)) == representation.segments
        assert representation[0].first_index == 0

    def test_empty_trajectory_representation(self):
        empty = build_trajectory([])
        representation = PiecewiseRepresentation.from_retained_indices(empty, [])
        assert representation.n_segments == 0
        assert representation.compression_ratio() == 0.0
