"""Checkpoint-correctness tests for the streaming snapshot protocol.

The core invariant (and the property the hub's durability story rests on):
interrupting any streaming-capable algorithm at an arbitrary point with
``snapshot()``, restoring into a fresh instance, and continuing the stream
yields exactly the segment sequence of an uninterrupted run — through a
strict-JSON round trip, so what holds here holds for checkpoints on disk.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Point, SimplificationError, Trajectory
from repro.api import Simplifier, algorithm_names, get_descriptor, list_descriptors
from repro.trajectory.soa import PointBlock

# Streaming-capable means open_stream() works at all: native streaming
# algorithms plus batch-only ones behind the buffered adapter.
CHECKPOINTABLE_STREAMING = tuple(
    descriptor.name
    for descriptor in list_descriptors()
    if descriptor.error_bounded and descriptor.snapshot_capable
)

COMMON_SETTINGS = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def random_trajectories(draw, max_points: int = 60):
    """Random-walk trajectories from sub-metre jitter to km-scale legs."""
    n = draw(st.integers(min_value=2, max_value=max_points))
    step_scale = draw(st.floats(min_value=0.5, max_value=500.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.normal(0.0, step_scale, n))
    ys = np.cumsum(rng.normal(0.0, step_scale, n))
    return Trajectory(xs, ys, np.arange(n, dtype=float))


def interrupted_run(session: Simplifier, points: list[Point], cut: int):
    """Stream with a snapshot/JSON/restore interruption after ``cut`` points."""
    first = session.open_stream()
    emitted = first.feed(points[:cut])
    state = json.loads(json.dumps(first.snapshot(), allow_nan=False))
    resumed = session.restore_stream(state)
    emitted += resumed.feed(points[cut:]) + resumed.finish()
    return emitted, resumed


class TestCheckpointProperty:
    @settings(**COMMON_SETTINGS)
    @given(
        trajectory=random_trajectories(),
        epsilon=st.floats(min_value=0.5, max_value=200.0),
        algorithm=st.sampled_from(CHECKPOINTABLE_STREAMING),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_interrupted_stream_matches_uninterrupted(
        self, trajectory, epsilon, algorithm, cut_fraction
    ):
        session = Simplifier(algorithm, epsilon)
        points = list(trajectory)
        cut = int(round(cut_fraction * len(points)))

        uninterrupted = session.open_stream()
        expected = uninterrupted.feed(points) + uninterrupted.finish()

        emitted, resumed = interrupted_run(session, points, cut)
        assert emitted == expected
        assert resumed.points_pushed == len(points)

    @settings(**COMMON_SETTINGS)
    @given(
        trajectory=random_trajectories(max_points=40),
        epsilon=st.floats(min_value=1.0, max_value=100.0),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=4),
    )
    def test_repeated_checkpoints_compose(self, trajectory, epsilon, cuts):
        """Checkpointing N times along one stream still matches one pass."""
        session = Simplifier("operb-a", epsilon)
        points = list(trajectory)

        uninterrupted = session.open_stream()
        expected = uninterrupted.feed(points) + uninterrupted.finish()

        stream = session.open_stream()
        emitted = []
        position = 0
        for fraction in sorted(cuts):
            cut = int(round(fraction * len(points)))
            emitted += stream.feed(points[position:cut])
            position = max(position, cut)
            state = json.loads(json.dumps(stream.snapshot(), allow_nan=False))
            stream = session.restore_stream(state)
        emitted += stream.feed(points[position:]) + stream.finish()
        assert emitted == expected


class TestSnapshotProtocol:
    @pytest.mark.parametrize("name", sorted(CHECKPOINTABLE_STREAMING))
    def test_snapshot_is_strict_json(self, name, noisy_walk):
        stream = Simplifier(name, 25.0).open_stream()
        stream.feed(list(noisy_walk)[:57])
        # allow_nan=False rejects NaN/Infinity: the payload must be portable.
        payload = json.dumps(stream.snapshot(), allow_nan=False)
        assert json.loads(payload)["pushes"] == 57

    def test_descriptor_capability_flags(self):
        for name in ("operb", "raw-operb", "operb-a", "raw-operb-a", "fbqs", "dead-reckoning"):
            descriptor = get_descriptor(name)
            assert descriptor.checkpointable
            assert descriptor.snapshot_capable
            assert descriptor.capabilities()["checkpointable"]
        # Batch-only algorithms snapshot through the buffered adapter.
        assert not get_descriptor("dp").checkpointable
        assert get_descriptor("dp").snapshot_capable

    def test_restore_requires_fresh_session(self, noisy_walk):
        session = Simplifier("operb", 25.0)
        stream = session.open_stream()
        stream.feed(list(noisy_walk)[:10])
        state = stream.snapshot()
        used = session.open_stream()
        used.push(noisy_walk[0])
        with pytest.raises(SimplificationError):
            used._restore(state)

    def test_restore_requires_fresh_raw_simplifier(self):
        from repro.core.config import OperbConfig
        from repro.core.operb import OPERBSimplifier

        first = OPERBSimplifier(OperbConfig.optimized(10.0))
        first.push(Point(0.0, 0.0, 0.0))
        state = first.snapshot()
        second = OPERBSimplifier(OperbConfig.optimized(10.0))
        second.push(Point(0.0, 0.0, 0.0))
        with pytest.raises(SimplificationError):
            second.restore(state)

    def test_snapshot_of_finished_session_restores_finished(self, two_points):
        session = Simplifier("operb", 25.0)
        stream = session.open_stream()
        stream.feed(two_points)
        stream.finish()
        restored = session.restore_stream(stream.snapshot())
        assert restored.finished
        with pytest.raises(SimplificationError):
            restored.push(Point(0.0, 0.0, 0.0))

    def test_unsupported_streaming_factory_raises(self, noisy_walk):
        from repro.api import register_algorithm, unregister_algorithm

        class NoSnapshotSimplifier:
            def __init__(self, epsilon):
                self.epsilon = epsilon

            def push(self, point):
                return []

            def finish(self):
                return []

        register_algorithm(
            "no-snapshot",
            streaming_factory=NoSnapshotSimplifier,
            streaming_kwargs=(),
            summary="test-only",
        )(lambda trajectory, epsilon: None)
        try:
            descriptor = get_descriptor("no-snapshot")
            assert not descriptor.snapshot_capable
            stream = Simplifier("no-snapshot", 10.0).open_stream()
            stream.push(noisy_walk[0])
            with pytest.raises(SimplificationError, match="snapshot"):
                stream.snapshot()
        finally:
            unregister_algorithm("no-snapshot")

    def test_adapter_snapshot_carries_the_buffer(self, noisy_walk):
        session = Simplifier("dp", 25.0)
        stream = session.open_stream()
        stream.feed(list(noisy_walk)[:80])
        state = stream.snapshot()
        # The adapter's linear-memory cost is visible in its checkpoint.
        assert len(state["raw"]["points"]) == 80
        restored = session.restore_stream(state)
        assert restored.buffered_points == 80

    def test_every_error_bounded_algorithm_is_streamable_and_checkpointable(self):
        for name in algorithm_names():
            descriptor = get_descriptor(name)
            assert descriptor.snapshot_capable or not descriptor.streaming


# ---------------------------------------------------------------------- #
# Checkpoints written by an older engine
# ---------------------------------------------------------------------- #
_PARENT_CHECKPOINTS = sorted((Path(__file__).parent / "data").glob("checkpoint_*.json"))
"""Session snapshots written by commit 63d627b, whose OPERB engine still held
fixes as ``Point`` objects (see ``data/make_parent_checkpoints.py``): OPERB
mid-segment with a last active fix, OPERB mid-absorption, and OPERB-A
holding an anomalous pending pair."""


def _segments_digest(segments) -> str:
    payload = json.dumps([segment.to_dict() for segment in segments], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestParentWrittenCheckpoints:
    @pytest.fixture(params=_PARENT_CHECKPOINTS, ids=lambda path: path.stem)
    def fixture(self, request):
        return json.loads(request.param.read_text())

    def test_fixtures_are_present(self):
        assert len(_PARENT_CHECKPOINTS) == 3

    @pytest.mark.parametrize("ingest", ["push", "push_block"])
    def test_restored_stream_continues_to_the_pinned_segments(self, fixture, ingest):
        session = Simplifier(fixture["algorithm"], fixture["epsilon"]).restore_stream(
            fixture["session"]
        )
        rest = [Point(x, y, t) for x, y, t in fixture["fixes"][fixture["cut"] :]]
        if ingest == "push":
            session.feed(rest)
        else:
            session.push_block(PointBlock.from_points(rest))
        assert _segments_digest(session.result().segments) == fixture["segments_sha256"]

    def test_restore_then_snapshot_is_byte_identical(self, fixture):
        session = Simplifier(fixture["algorithm"], fixture["epsilon"]).restore_stream(
            fixture["session"]
        )
        assert json.dumps(session.snapshot(), sort_keys=True) == json.dumps(
            fixture["session"], sort_keys=True
        )

    def test_same_stream_writes_the_same_snapshot_and_segments(self, fixture):
        simplifier = Simplifier(fixture["algorithm"], fixture["epsilon"])
        session = simplifier.open_stream()
        session.feed(Point(x, y, t) for x, y, t in fixture["fixes"][: fixture["cut"]])
        assert json.dumps(session.snapshot(), sort_keys=True) == json.dumps(
            fixture["session"], sort_keys=True
        )
        xs, ys, ts = zip(*fixture["fixes"])
        batch = simplifier.run(Trajectory(np.array(xs), np.array(ys), np.array(ts)))
        assert _segments_digest(batch.segments) == fixture["segments_sha256"]
