"""Unit tests for raw streaming simplifiers, the buffered adapter, sinks and
the one-pass emission properties."""

from __future__ import annotations

import io

import pytest

from repro import (
    InvalidParameterError,
    Point,
    SimplificationError,
    Simplifier,
    UnknownAlgorithmError,
)
from repro.api import BufferedBatchAdapter, get_descriptor, open_raw_stream
from repro.metrics import check_error_bound
from repro.streaming import CollectingSink, CsvSegmentSink, StatisticsSink

NATIVE_STREAMING = ("operb", "raw-operb", "operb-a", "raw-operb-a", "fbqs", "dead-reckoning")


def open_raw(name: str, epsilon: float, **kwargs):
    """Raw push/finish simplifier by name (native or buffered adapter)."""
    return open_raw_stream(get_descriptor(name), epsilon, **kwargs)


def emissions(simplifier, points):
    """Push ``points`` one at a time: (segments per push, finish() output)."""
    per_push = [len(simplifier.push(point)) for point in points]
    return per_push, simplifier.finish()


class TestFactory:
    def test_streaming_algorithms_are_native(self):
        for name in NATIVE_STREAMING:
            simplifier = open_raw(name, 20.0)
            assert hasattr(simplifier, "push") and hasattr(simplifier, "finish")
            assert not isinstance(simplifier, BufferedBatchAdapter)

    def test_batch_algorithms_are_wrapped(self):
        adapter = open_raw("dp", 20.0)
        assert isinstance(adapter, BufferedBatchAdapter)

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithmError):
            open_raw("nope", 20.0)


class TestOnePassAccounting:
    def test_operb_processes_each_point_once(self, taxi_trajectory):
        simplifier = open_raw("operb", 40.0)
        emissions(simplifier, taxi_trajectory)
        assert simplifier.stats.points_processed == len(taxi_trajectory)

    def test_operb_distance_computations_linear(self, taxi_trajectory):
        simplifier = open_raw("operb", 40.0)
        emissions(simplifier, taxi_trajectory)
        # O(1) work per point: at most a small constant number of distance
        # computations for each of the n points.
        assert simplifier.stats.distance_computations <= 4 * len(taxi_trajectory)


class TestBufferedAdapter:
    def test_adapter_buffers_everything_until_finish(self, noisy_walk):
        adapter = BufferedBatchAdapter("dp", 25.0)
        for point in noisy_walk:
            assert adapter.push(point) == []
        assert adapter.buffered_points == len(noisy_walk)
        segments = adapter.finish()
        assert len(segments) >= 1

    def test_double_finish_raises(self, noisy_walk):
        adapter = BufferedBatchAdapter("dp", 25.0)
        for point in noisy_walk:
            adapter.push(point)
        adapter.finish()
        with pytest.raises(SimplificationError):
            adapter.finish()

    def test_push_after_finish_raises(self, two_points):
        adapter = BufferedBatchAdapter("dp", 25.0)
        for point in two_points:
            adapter.push(point)
        adapter.finish()
        with pytest.raises(SimplificationError):
            adapter.push(next(iter(two_points)))

    def test_kwargs_validated_at_construction(self):
        with pytest.raises(InvalidParameterError):
            BufferedBatchAdapter("dp", 25.0, bogus=True)

    def test_factory_validates_batch_fallback_kwargs_eagerly(self):
        with pytest.raises(InvalidParameterError):
            open_raw("dp", 25.0, bogus=True)


class TestSinks:
    def test_collecting_sink(self, noisy_walk):
        segments = Simplifier("operb", 25.0).run(noisy_walk).segments
        sink = CollectingSink(algorithm="operb")
        for segment in segments:
            sink.accept(segment)
        assert sink.as_representation(len(noisy_walk)).n_segments == len(segments)

    def test_csv_sink_writes_rows(self, noisy_walk):
        buffer = io.StringIO()
        segments = Simplifier("operb", 25.0).run(noisy_walk).segments
        with CsvSegmentSink(buffer) as sink:
            for segment in segments:
                sink.accept(segment)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == len(segments) + 1

    def test_statistics_sink(self, noisy_walk):
        segments = Simplifier("operb", 25.0).run(noisy_walk).segments
        sink = StatisticsSink()
        for segment in segments:
            sink.accept(segment)
        assert sink.segments_received == len(segments)
        assert sink.points_covered >= len(segments) + 1
        assert sink.total_length > 0.0


class TestEmission:
    def test_streaming_emits_most_segments_before_finish(self, taxi_trajectory):
        with Simplifier("operb", 40.0).open_stream() as stream:
            per_push, tail = emissions(stream, taxi_trajectory)
        # A one-pass algorithm emits continuously; only the trailing segment
        # or two wait for finish().
        assert len(tail) <= 2
        assert sum(per_push) + len(tail) == stream.result().n_segments
        assert stream.stats.points_processed == len(taxi_trajectory)

    def test_batch_adapter_emits_everything_at_finish(self, taxi_trajectory):
        with Simplifier("dp", 40.0).open_stream() as stream:
            per_push, tail = emissions(stream, taxi_trajectory)
        assert sum(per_push) == 0
        assert tail == list(stream.result().segments)

    def test_stream_result_structure(self, taxi_trajectory):
        with Simplifier("operb", 40.0).open_stream() as stream:
            stream.feed(taxi_trajectory)
        result = stream.result()
        assert stream.stats.points_processed == len(taxi_trajectory)
        assert result.n_segments == len(result.segments)
        assert result.source_size == len(taxi_trajectory)
        assert result.algorithm == "operb"

    def test_stream_output_is_error_bounded(self, taxi_trajectory):
        with Simplifier("operb-a", 40.0).open_stream() as stream:
            stream.feed(taxi_trajectory)
        assert check_error_bound(taxi_trajectory, stream.result(), 40.0)


class TestStreamingEdgeCases:
    """Lifecycle and degenerate-stream behaviour of every native simplifier."""

    @pytest.mark.parametrize("name", NATIVE_STREAMING)
    def test_push_after_finish_raises(self, name):
        simplifier = open_raw(name, 20.0)
        simplifier.push(Point(0.0, 0.0, 0.0))
        simplifier.finish()
        with pytest.raises(SimplificationError):
            simplifier.push(Point(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("name", NATIVE_STREAMING)
    def test_empty_stream_finish_yields_nothing(self, name):
        simplifier = open_raw(name, 20.0)
        assert simplifier.finish() == []

    @pytest.mark.parametrize("name", NATIVE_STREAMING)
    def test_single_point_stream_yields_nothing(self, name):
        simplifier = open_raw(name, 20.0)
        assert simplifier.push(Point(3.0, 4.0, 0.0)) == []
        assert simplifier.finish() == []

    @pytest.mark.parametrize("name", NATIVE_STREAMING)
    def test_finish_after_finish_is_silent_for_native(self, name):
        # Native simplifiers treat a second finish() as a no-op flush (the
        # session layer is what enforces the strict single-finish lifecycle).
        simplifier = open_raw(name, 20.0)
        simplifier.push(Point(0.0, 0.0, 0.0))
        simplifier.finish()
        assert simplifier.finish() == []

    def test_zero_segment_run_emits_only_at_finish(self):
        simplifier = open_raw("operb", 50.0)
        # Two nearby points: everything is absorbed, a single trailing
        # segment appears only at finish.
        assert simplifier.push(Point(0.0, 0.0, 0.0)) == []
        assert simplifier.push(Point(1.0, 0.0, 1.0)) == []
        assert len(simplifier.finish()) == 1

    def test_statistics_sink_zero_segment_run(self):
        sink = StatisticsSink()
        assert sink.segments_received == 0
        assert sink.points_covered == 0
        assert sink.anomalous_segments == 0
        assert sink.total_length == 0.0

    def test_collecting_sink_empty_representation(self):
        sink = CollectingSink(algorithm="operb")
        representation = sink.as_representation(0)
        assert representation.n_segments == 0
        assert representation.source_size == 0

    def test_max_backlog_of_buffered_adapter(self, noisy_walk):
        # The buffered adapter is the max-backlog extreme: nothing is emitted
        # until finish(), when the whole compressed stream arrives at once.
        per_push, tail = emissions(open_raw("dp", 25.0), noisy_walk)
        assert max(per_push) == 0
        assert len(tail) >= 1

    def test_one_pass_backlog_stays_bounded(self, noisy_walk):
        # A one-pass algorithm never releases a large burst on a single push.
        per_push, _ = emissions(open_raw("operb", 25.0), noisy_walk)
        assert max(per_push) <= 2
