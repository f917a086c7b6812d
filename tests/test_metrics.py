"""Unit tests for the metrics package."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import OperbAConfig
from repro.core.operb_a import OPERBASimplifier
from repro.metrics import (
    anomalous_segment_count,
    average_error,
    check_error_bound,
    compression_ratio,
    distribution_to_rows,
    error_bound_violations,
    evaluate,
    evaluate_fleet,
    fleet_compression_ratio,
    heavy_segment_count,
    max_error,
    merge_distributions,
    patched_vertex_count,
    patching_summary,
    per_point_errors,
    retained_point_ratio,
    segment_size_distribution,
    summarize_errors,
)
from repro.metrics.patching import PatchingSummary, aggregate_patching
from repro.trajectory.piecewise import PiecewiseRepresentation

from _builders import build_trajectory


@pytest.fixture
def square_wave():
    return build_trajectory(
        [(0.0, 0.0), (10.0, 0.0), (20.0, 10.0), (30.0, 10.0), (40.0, 0.0), (50.0, 0.0)]
    )


@pytest.fixture
def coarse_representation(square_wave):
    return PiecewiseRepresentation.from_retained_indices(square_wave, [0, 5], algorithm="test")


class TestCompressionMetrics:
    def test_compression_ratio(self, coarse_representation):
        assert compression_ratio(coarse_representation) == pytest.approx(1 / 6)

    def test_fleet_ratio_is_point_weighted(self, square_wave, coarse_representation):
        fine = PiecewiseRepresentation.from_retained_indices(
            square_wave, list(range(6)), algorithm="test"
        )
        ratio = fleet_compression_ratio([coarse_representation, fine])
        assert ratio == pytest.approx((1 + 5) / 12)

    def test_retained_point_ratio(self, coarse_representation):
        assert retained_point_ratio(coarse_representation) == pytest.approx(2 / 6)


class TestErrorMetrics:
    def test_per_point_errors_zero_for_exact_representation(self, straight_line):
        representation = PiecewiseRepresentation.from_retained_indices(
            straight_line, [0, len(straight_line) - 1]
        )
        errors = per_point_errors(straight_line, representation)
        np.testing.assert_allclose(errors, 0.0, atol=1e-9)

    def test_per_point_errors_capture_deviation(self, square_wave, coarse_representation):
        errors = per_point_errors(square_wave, coarse_representation)
        assert errors.max() == pytest.approx(10.0)
        assert average_error(square_wave, coarse_representation) == pytest.approx(errors.mean())

    def test_max_error_nearest_vs_containing(self, square_wave, coarse_representation):
        containing = max_error(square_wave, coarse_representation)
        nearest = max_error(square_wave, coarse_representation, nearest_segment=True)
        assert nearest <= containing + 1e-12

    def test_violations_and_bound_check(self, square_wave, coarse_representation):
        assert check_error_bound(square_wave, coarse_representation, 10.0)
        assert not check_error_bound(square_wave, coarse_representation, 5.0)
        violations = error_bound_violations(square_wave, coarse_representation, 5.0)
        assert violations == [2, 3]

    def test_summarize_errors(self, square_wave, coarse_representation):
        summary = summarize_errors(square_wave, coarse_representation, 10.0)
        assert summary.maximum == pytest.approx(10.0)
        assert summary.bound_satisfied
        assert set(summary.as_dict()) == {"mean", "median", "p95", "max", "bound_satisfied"}

    def test_empty_representation(self, square_wave):
        empty = PiecewiseRepresentation(segments=[], source_size=len(square_wave))
        assert average_error(square_wave, empty) == 0.0
        assert max_error(square_wave, empty) == 0.0


class TestDistributionMetrics:
    def test_segment_size_distribution(self, square_wave):
        representation = PiecewiseRepresentation.from_retained_indices(square_wave, [0, 1, 5])
        assert segment_size_distribution(representation) == {2: 1, 5: 1}

    def test_merge_and_rows(self):
        merged = merge_distributions([{2: 3, 5: 1}, {2: 1, 9: 2}])
        assert merged == {2: 4, 5: 1, 9: 2}
        assert distribution_to_rows(merged, max_k=5) == [(2, 4), (5, 3)]

    def test_anomalous_and_heavy_counts(self, square_wave):
        representation = PiecewiseRepresentation.from_retained_indices(square_wave, [0, 1, 5])
        assert anomalous_segment_count(representation) == 1
        assert heavy_segment_count(representation, threshold=5) == 1


class TestPatchingMetrics:
    def test_patching_summary_from_simplifier(self, taxi_trajectory):
        simplifier = OPERBASimplifier(OperbAConfig.optimized(40.0))
        representation = simplifier.simplify(taxi_trajectory)
        summary = patching_summary(simplifier)
        assert summary.patches_applied <= summary.anomalous_segments
        assert patched_vertex_count(representation) == summary.patches_applied

    def test_aggregate_patching(self):
        from repro.core.operb_a import OperbAStatistics

        summary = aggregate_patching(
            [
                OperbAStatistics(anomalous_segments=4, patches_applied=2),
                OperbAStatistics(anomalous_segments=6, patches_applied=3),
            ]
        )
        assert summary == PatchingSummary(anomalous_segments=10, patches_applied=5)
        assert summary.patching_ratio == pytest.approx(0.5)

    def test_zero_anomalous_gives_zero_ratio(self):
        assert PatchingSummary(0, 0).patching_ratio == 0.0


class TestEvaluate:
    def test_evaluate_single(self, square_wave, coarse_representation):
        report = evaluate(square_wave, coarse_representation, 10.0)
        assert report.total_points == 6
        assert report.total_segments == 1
        assert report.error_bound_satisfied
        assert report.max_error == pytest.approx(10.0)
        assert "compression_ratio" in report.as_dict()

    def test_evaluate_fleet_totals(self, square_wave, coarse_representation):
        report = evaluate_fleet(
            [square_wave, square_wave], [coarse_representation, coarse_representation], 10.0
        )
        assert report.total_points == 12
        assert report.total_segments == 2

    def test_evaluate_fleet_length_mismatch(self, square_wave, coarse_representation):
        with pytest.raises(ValueError):
            evaluate_fleet([square_wave], [], 10.0)
