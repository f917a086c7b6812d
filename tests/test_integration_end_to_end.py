"""Integration tests spanning datasets, algorithms, metrics, streaming and I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Simplifier,
    evaluate,
    evaluate_fleet,
    generate_dataset,
)
from repro.datasets.noise import inject_duplicates, inject_out_of_order
from repro.experiments import PAPER_ALGORITHMS
from repro.metrics import check_error_bound, fleet_compression_ratio
from repro.trajectory.io import read_jsonl, write_jsonl
from repro.trajectory.operations import drop_duplicate_points, sort_by_time


class TestFleetWorkflow:
    """Generate a fleet, compress it with every paper algorithm, evaluate it."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_dataset("taxi", n_trajectories=2, points_per_trajectory=800, seed=21)

    def test_paper_algorithms_produce_bounded_output(self, fleet):
        epsilon = 40.0
        for algorithm in PAPER_ALGORITHMS:
            representations = [Simplifier(algorithm, epsilon).run(t) for t in fleet]
            report = evaluate_fleet(fleet, representations, epsilon)
            assert report.error_bound_satisfied
            assert 0.0 < report.compression_ratio < 1.0

    def test_relative_compression_ordering(self, fleet):
        """The paper's qualitative ordering: OPERB-A <= OPERB ~ DP <= FBQS-ish."""
        epsilon = 40.0
        ratios = {
            algorithm: fleet_compression_ratio(
                [Simplifier(algorithm, epsilon).run(t) for t in fleet]
            )
            for algorithm in PAPER_ALGORITHMS
        }
        assert ratios["operb-a"] <= ratios["operb"] + 1e-9
        assert ratios["operb"] <= 1.5 * ratios["dp"]
        assert ratios["dp"] <= 1.5 * ratios["operb"]

    def test_round_trip_through_jsonl(self, fleet, tmp_path):
        path = tmp_path / "fleet.jsonl"
        write_jsonl(fleet, path)
        loaded = read_jsonl(path)
        assert len(loaded) == len(fleet)
        assert loaded[0] == fleet[0]


class TestMessyFeedWorkflow:
    """Clean a deliberately messy feed, then stream-compress it."""

    def test_clean_then_stream(self, taxi_trajectory):
        messy = inject_duplicates(taxi_trajectory, fraction=0.05, seed=3)
        messy = inject_out_of_order(messy, swaps=10, seed=3)
        cleaned = drop_duplicate_points(sort_by_time(messy))
        assert np.all(np.diff(cleaned.ts) >= 0.0)

        with Simplifier("operb-a", 40.0).open_stream() as stream:
            stream.feed(cleaned)
        representation = stream.result()
        assert check_error_bound(cleaned, representation, 40.0)
        report = evaluate(cleaned, representation, 40.0)
        assert report.compression_ratio < 0.8


class TestCrossAlgorithmConsistency:
    def test_all_algorithms_cover_all_points(self, sercar_trajectory):
        epsilon = 30.0
        for algorithm in ("dp", "opw", "bqs", "fbqs", "operb", "operb-a"):
            representation = Simplifier(algorithm, epsilon).run(sercar_trajectory)
            assert representation.segments[0].first_index == 0
            assert representation.segments[-1].last_index == len(sercar_trajectory) - 1

    def test_epsilon_sweep_is_monotone_for_each_algorithm(self, sercar_trajectory):
        for algorithm in ("dp", "fbqs", "operb", "operb-a"):
            previous = None
            for epsilon in (10.0, 40.0, 160.0):
                segments = Simplifier(algorithm, epsilon).run(sercar_trajectory).n_segments
                if previous is not None:
                    # Allow a small amount of non-monotonicity for the greedy
                    # one-pass methods; DP is strictly monotone.
                    slack = 0 if algorithm == "dp" else max(3, previous // 10)
                    assert segments <= previous + slack
                previous = segments
