"""Tests for the fleet-scale batch executor (run_many) and evaluate_fleet."""

from __future__ import annotations

import os

import pytest

from repro import FleetExecutionError, InvalidParameterError, Simplifier, evaluate_fleet
from repro.exceptions import ExecutionError
from repro.api import register_algorithm, unregister_algorithm
from repro.datasets import generate_dataset

EPSILON = 40.0


def _raise_value_error(trajectory, epsilon=0.0):
    """Module-level failing batch body (picklable, importable in workers)."""
    raise ValueError("deliberate failure")


def _exit_on_long_input(trajectory, epsilon=0.0):
    """Batch body that kills its worker process on trajectories over 3 fixes."""
    if len(trajectory) > 3:
        os._exit(1)
    raise ValueError("only long inputs reach the worker-killing path")


@pytest.fixture(scope="module")
def fleet():
    return generate_dataset(
        "taxi", n_trajectories=6, points_per_trajectory=400, seed=11
    )


class TestRunMany:
    def test_serial_run(self, fleet):
        result = Simplifier("operb", EPSILON).run_many(fleet, workers=1)
        assert result.ok and result.n_total == len(fleet)
        assert result.n_failed == 0
        assert all(r is not None for r in result.representations)
        assert result.total_points == sum(len(t) for t in fleet)
        assert result.points_per_second > 0.0

    def test_workers_must_be_positive(self, fleet):
        with pytest.raises(InvalidParameterError):
            Simplifier("operb", EPSILON).run_many(fleet, workers=0)

    def test_invalid_on_error_mode(self, fleet):
        with pytest.raises(InvalidParameterError):
            Simplifier("operb", EPSILON).run_many(fleet, on_error="ignore")

    def test_parallel_matches_serial(self, fleet):
        """The node backend must be a pure performance choice."""
        session = Simplifier("operb-a", EPSILON)
        serial = session.run_many(fleet, workers=1)
        parallel = session.run_many(fleet, workers=3)
        assert parallel.backend == "node"
        assert parallel.workers == 3
        for a, b in zip(serial.representations, parallel.representations):
            assert a.segments == b.segments

    def test_result_iteration_and_len(self, fleet):
        result = Simplifier("dp", EPSILON).run_many(fleet)
        assert len(result) == len(fleet)
        assert [r.n_segments for r in result] == [
            r.n_segments for r in result.representations
        ]


class TestEffectiveBackendReporting:
    """FleetResult.workers/backend report what actually ran, not the request."""

    def test_serial_run_reports_serial_backend(self, fleet):
        result = Simplifier("operb", EPSILON).run_many(fleet, workers=1)
        assert result.backend == "serial"
        assert result.workers == 1

    def test_degenerate_fleet_collapses_to_serial(self, two_points):
        # Requesting 8 workers for a single trajectory silently runs
        # serially — and the result says so.
        result = Simplifier("operb", EPSILON).run_many([two_points], workers=8)
        assert result.backend == "serial"
        assert result.workers == 1

    def test_worker_count_clamped_to_fleet_size(self, fleet):
        result = Simplifier("operb", EPSILON).run_many(fleet, workers=100)
        assert result.backend == "node"
        assert result.workers == len(fleet)

    def test_explicit_thread_backend_reported(self, fleet):
        result = Simplifier("operb", EPSILON).run_many(
            fleet, workers=2, backend="thread"
        )
        assert result.backend == "thread"
        assert result.workers == 2

    def test_thread_backend_matches_serial(self, fleet):
        session = Simplifier("operb-a", EPSILON)
        serial = session.run_many(fleet, workers=1)
        threaded = session.run_many(fleet, workers=3, backend="thread")
        for a, b in zip(serial.representations, threaded.representations):
            assert a.segments == b.segments

    def test_unknown_backend_rejected(self, fleet):
        with pytest.raises(InvalidParameterError, match="unknown execution backend"):
            Simplifier("operb", EPSILON).run_many(fleet, backend="warp")

    def test_thread_backend_keeps_original_exception_objects(self, noisy_walk):
        from repro.api import AlgorithmDescriptor

        adhoc = AlgorithmDescriptor(
            name="adhoc-raiser",
            batch=_raise_value_error,
            error_metric="none",
            summary="always fails",
        )
        result = Simplifier(adhoc).run_many(
            [noisy_walk, noisy_walk], workers=2, backend="thread", on_error="collect"
        )
        assert result.n_failed == 2
        assert all(isinstance(e.exception, ValueError) for e in result.errors)


class TestNodeFleets:
    """``run_many`` on the node backend (what ``workers > 1`` resolves to)."""

    @pytest.mark.parametrize("n_trajectories", [1, 2, 9, 17])
    def test_outcomes_keep_input_order_at_chunk_boundaries(self, n_trajectories):
        # Two workers take chunks of max(1, n // 8) trajectories: a lone
        # trajectory (collapses to serial), one per worker, one past four
        # chunks each, and chunks of two with a short last chunk.
        fleet = generate_dataset(
            "taxi", n_trajectories=n_trajectories, points_per_trajectory=60, seed=5
        )
        session = Simplifier("operb", EPSILON)
        serial = session.run_many(fleet, workers=1)
        result = session.run_many(fleet, workers=2, backend="node")
        assert result.backend == ("serial" if n_trajectories == 1 else "node")
        assert [r.segments for r in result.representations] == [
            r.segments for r in serial.representations
        ]

    @pytest.fixture()
    def worker_killer(self):
        register_algorithm(
            "unit-test-worker-killer", error_metric="none", summary="kills its worker"
        )(_exit_on_long_input)
        yield "unit-test-worker-killer"
        unregister_algorithm("unit-test-worker-killer")

    @pytest.mark.parametrize("on_error", ["raise", "collect"])
    def test_task_that_kills_its_worker_raises_execution_error(
        self, worker_killer, two_points, noisy_walk, on_error
    ):
        # A dead worker takes its whole pool down, so the failure cannot be
        # isolated to one trajectory: the run raises, in either mode.
        with pytest.raises(ExecutionError, match="worker died") as raised:
            Simplifier(worker_killer).run_many(
                [two_points, noisy_walk, two_points], workers=2, on_error=on_error
            )
        assert raised.value.__cause__ is not None


class TestErrorIsolation:
    @pytest.fixture()
    def flaky_registered(self):
        @register_algorithm("unit-test-flaky", error_metric="none", summary="fails on big inputs")
        def flaky(trajectory, epsilon=0.0):
            if len(trajectory) > 3:
                raise ValueError("too big for the flaky algorithm")
            from repro.trajectory.piecewise import PiecewiseRepresentation

            return PiecewiseRepresentation.from_retained_indices(
                trajectory, list(range(len(trajectory))), algorithm="unit-test-flaky"
            )

        yield "unit-test-flaky"
        unregister_algorithm("unit-test-flaky")

    def test_collect_isolates_failures(self, flaky_registered, two_points, noisy_walk):
        result = Simplifier(flaky_registered).run_many(
            [two_points, noisy_walk, two_points], on_error="collect"
        )
        assert not result.ok
        assert result.n_failed == 1
        assert result.errors[0].index == 1
        assert result.errors[0].error_type == "ValueError"
        assert result.representations[1] is None
        assert result.representations[0] is not None
        assert len(result.successful()) == 2

    def test_raise_mode_summarises_failures(self, flaky_registered, two_points, noisy_walk):
        with pytest.raises(FleetExecutionError) as excinfo:
            Simplifier(flaky_registered).run_many([two_points, noisy_walk])
        assert excinfo.value.errors[0].error_type == "ValueError"
        assert "1/2" in str(excinfo.value)

    def test_serial_failures_chain_original_exception(self, flaky_registered, noisy_walk):
        with pytest.raises(FleetExecutionError) as excinfo:
            Simplifier(flaky_registered).run_many([noisy_walk], workers=1)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert isinstance(excinfo.value.errors[0].exception, ValueError)

    def test_generator_input_survives_the_failure_path(
        self, flaky_registered, two_points, noisy_walk
    ):
        # A lazily-produced fleet must work even when a trajectory fails
        # (the error path maps outcome indices back to trajectories).
        result = Simplifier(flaky_registered).run_many(
            (t for t in [two_points, noisy_walk, two_points]), on_error="collect"
        )
        assert result.n_total == 3
        assert result.n_failed == 1
        assert result.errors[0].index == 1


class TestUnregisteredDescriptor:
    def test_run_many_accepts_adhoc_descriptor(self, fleet):
        from repro.api import AlgorithmDescriptor, get_descriptor

        adhoc = AlgorithmDescriptor(
            name="adhoc-dp", batch=get_descriptor("dp").batch, summary="never registered"
        )
        result = Simplifier(adhoc, EPSILON).run_many(fleet, workers=1)
        assert result.ok
        reference = Simplifier("dp", EPSILON).run_many(fleet, workers=1)
        for ours, theirs in zip(result.representations, reference.representations):
            assert ours.segments == theirs.segments

    def test_run_many_adhoc_descriptor_parallel(self, fleet):
        from repro.api import AlgorithmDescriptor, get_descriptor

        # Module-level batch callable => picklable => works across processes.
        adhoc = AlgorithmDescriptor(
            name="adhoc-operb", batch=get_descriptor("operb").batch, summary=""
        )
        result = Simplifier(adhoc, EPSILON).run_many(fleet, workers=2)
        assert result.ok and result.n_total == len(fleet)


class TestEvaluateFleetRouting:
    def test_algorithm_path_matches_precomputed(self, fleet):
        representations = Simplifier("operb", EPSILON).run_many(fleet).successful()
        precomputed = evaluate_fleet(fleet, representations, EPSILON)
        routed = evaluate_fleet(fleet, epsilon=EPSILON, algorithm="operb", workers=2)
        assert routed.as_dict() == precomputed.as_dict()

    def test_requires_epsilon(self, fleet):
        with pytest.raises(InvalidParameterError):
            evaluate_fleet(fleet, algorithm="operb")

    def test_rejects_both_representations_and_algorithm(self, fleet):
        representations = Simplifier("operb", EPSILON).run_many(fleet).successful()
        with pytest.raises(InvalidParameterError):
            evaluate_fleet(fleet, representations, EPSILON, algorithm="operb")

    def test_requires_algorithm_or_representations(self, fleet):
        with pytest.raises(InvalidParameterError):
            evaluate_fleet(fleet, epsilon=EPSILON)

    def test_rejects_stray_options_with_precomputed_representations(self, fleet):
        representations = Simplifier("operb", EPSILON).run_many(fleet).successful()
        with pytest.raises(InvalidParameterError):
            evaluate_fleet(fleet, representations, EPSILON, tolerence=1e-6)  # typo
        with pytest.raises(InvalidParameterError):
            evaluate_fleet(fleet, representations, EPSILON, workers=8)


class TestRunManySinkRouting:
    def test_segments_route_to_per_trajectory_sinks(self, fleet):
        from repro.streaming import CollectingSink

        sinks: dict[str, CollectingSink] = {}

        def factory(trajectory_id: str) -> CollectingSink:
            sinks[trajectory_id] = CollectingSink()
            return sinks[trajectory_id]

        result = Simplifier("operb", EPSILON).run_many(fleet, sink_factory=factory)
        assert set(sinks) == {t.trajectory_id for t in fleet}
        for trajectory, representation in zip(fleet, result):
            routed = sinks[trajectory.trajectory_id].segments
            assert routed == list(representation.segments)

    def test_factory_result_must_satisfy_the_protocol(self, fleet):
        with pytest.raises(InvalidParameterError, match="SegmentSink"):
            Simplifier("operb", EPSILON).run_many(
                fleet, sink_factory=lambda trajectory_id: object()
            )

    def test_failed_trajectories_get_no_sink(self, two_points, noisy_walk):
        from repro.streaming import CollectingSink

        @register_algorithm(
            "unit-test-sink-flaky", error_metric="none", summary="fails on big inputs"
        )
        def flaky(trajectory, epsilon=0.0):
            raise ValueError("too big")

        created: list[str] = []

        def factory(trajectory_id: str) -> CollectingSink:
            created.append(trajectory_id)
            return CollectingSink()

        try:
            ok = Simplifier("operb", EPSILON).run_many(
                [two_points], sink_factory=factory
            )
            assert ok.n_failed == 0 and len(created) == 1
            created.clear()
            result = Simplifier("unit-test-sink-flaky", EPSILON).run_many(
                [two_points, noisy_walk], on_error="collect", sink_factory=factory
            )
        finally:
            unregister_algorithm("unit-test-sink-flaky")
        assert result.n_failed == 2
        # Failed trajectories never get a sink attached.
        assert created == []
