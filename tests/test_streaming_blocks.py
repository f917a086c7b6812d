"""Block-ingest equivalence: ``push_block`` is byte-identical to ``push``.

The block-based streaming protocol's whole contract is that the block
boundary is an *execution* choice, never a semantic one: splitting a stream
into arbitrary SoA blocks yields the same segments, the same statistics,
the same snapshots and the same hub checkpoints as pushing the points one
at a time — on every kernel backend and every execution backend.  These
hypothesis properties lock that in, alongside the finished-stream /
empty-block edge cases and the generic fallback for algorithms that predate
the protocol.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import InvalidParameterError, Point, SimplificationError, Trajectory
from repro.api import (
    AlgorithmDescriptor,
    BufferedBatchAdapter,
    Simplifier,
    get_descriptor,
    list_descriptors,
    register_algorithm,
    unregister_algorithm,
)
from repro.core.operb import OPERBSimplifier
from repro.geometry import kernels
from repro.perf.workloads import build_device_log
from repro.streaming import CollectingSink, StreamHub, restore_hub
from repro.trajectory import PointBlock
from repro.trajectory.blocks import BlockIngestMixin

# Every error-bounded algorithm whose open_stream() sessions can snapshot:
# the native streaming family plus batch-only ones behind the adapter.
CHECKPOINTABLE_STREAMING = tuple(
    descriptor.name
    for descriptor in list_descriptors()
    if descriptor.error_bounded and descriptor.snapshot_capable
)

BATCHED_NATIVE = tuple(
    descriptor.name for descriptor in list_descriptors() if descriptor.batched
)

COMMON_SETTINGS = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def random_trajectories(draw, max_points: int = 80):
    """Random-walk trajectories from sub-metre jitter to km-scale legs.

    Mixes in stationary dwell stretches (repeated coordinates) so the block
    kernels' bulk-absorb paths are actually exercised, not just probed.
    """
    n = draw(st.integers(min_value=1, max_value=max_points))
    step_scale = draw(st.floats(min_value=0.5, max_value=500.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    dwell = draw(st.integers(min_value=0, max_value=30))
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.normal(0.0, step_scale, n))
    ys = np.cumsum(rng.normal(0.0, step_scale, n))
    if dwell and n > 2:
        at = int(rng.integers(0, n - 1))
        xs[at:] = np.concatenate([np.full(min(dwell, n - at), xs[at]), xs[at + dwell:]])[: n - at]
        ys[at:] = np.concatenate([np.full(min(dwell, n - at), ys[at]), ys[at + dwell:]])[: n - at]
    return Trajectory(xs, ys, np.arange(n, dtype=float))


@st.composite
def block_splits(draw, n: int):
    """Arbitrary block boundaries over ``n`` points (empty blocks allowed)."""
    if n == 0:
        return []
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=n), min_size=0, max_size=6)
    )
    bounds = sorted({0, n, *cuts})
    return list(zip(bounds[:-1], bounds[1:]))


def _session_state(session) -> str:
    return json.dumps(session.snapshot(), sort_keys=True, allow_nan=False)


class TestBlockPointEquivalence:
    @settings(**COMMON_SETTINGS)
    @given(
        trajectory=random_trajectories(),
        epsilon=st.floats(min_value=0.5, max_value=200.0),
        algorithm=st.sampled_from(CHECKPOINTABLE_STREAMING),
        data=st.data(),
        backend=st.sampled_from(("vectorized", "scalar")),
    )
    def test_arbitrary_block_splits_match_per_point_push(
        self, trajectory, epsilon, algorithm, data, backend
    ):
        """Segments and snapshots agree for every split, on both kernel
        backends (the scalar backend is the equivalence oracle)."""
        points = list(trajectory)
        splits = data.draw(block_splits(len(points)))
        session = Simplifier(algorithm, epsilon)

        with kernels.kernel_backend(backend):
            reference = session.open_stream()
            expected = reference.feed(points) + reference.finish()

            blocked = session.open_stream()
            emitted = []
            block = PointBlock.from_points(points)
            for start, stop in splits:
                emitted.extend(blocked.push_block(block.slice(start, stop)))
            state = _session_state(blocked)
            emitted += blocked.finish()

            per_point = session.open_stream()
            per_point.feed(points)

        assert emitted == expected
        assert state == _session_state(per_point)
        assert blocked.points_pushed == len(points)

    @settings(**COMMON_SETTINGS)
    @given(
        trajectory=random_trajectories(),
        epsilon=st.floats(min_value=0.5, max_value=200.0),
        algorithm=st.sampled_from(CHECKPOINTABLE_STREAMING),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_mixed_push_and_push_block_interleave(
        self, trajectory, epsilon, algorithm, cut_fraction
    ):
        """Blocks and single points interleave freely on one session."""
        points = list(trajectory)
        cut = int(round(cut_fraction * len(points)))
        session = Simplifier(algorithm, epsilon)

        reference = session.open_stream()
        expected = reference.feed(points) + reference.finish()

        mixed = session.open_stream()
        emitted = mixed.feed(points[:cut])
        emitted += mixed.push_block(PointBlock.from_points(points[cut:]))
        emitted += mixed.finish()
        assert emitted == expected

    @settings(**COMMON_SETTINGS)
    @given(
        trajectory=random_trajectories(max_points=50),
        epsilon=st.floats(min_value=1.0, max_value=100.0),
        algorithm=st.sampled_from(CHECKPOINTABLE_STREAMING),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_snapshot_restore_between_blocks(
        self, trajectory, epsilon, algorithm, cut_fraction
    ):
        """A checkpoint taken at a block boundary resumes byte-identically."""
        points = list(trajectory)
        cut = int(round(cut_fraction * len(points)))
        session = Simplifier(algorithm, epsilon)

        reference = session.open_stream()
        expected = reference.feed(points) + reference.finish()

        first = session.open_stream()
        emitted = first.push_block(PointBlock.from_points(points[:cut]))
        state = json.loads(json.dumps(first.snapshot(), allow_nan=False))
        resumed = session.restore_stream(state)
        emitted += resumed.push_block(PointBlock.from_points(points[cut:]))
        emitted += resumed.finish()
        assert emitted == expected
        assert resumed.points_pushed == len(points)


class TestHubBlockEquivalence:
    @settings(deadline=None, max_examples=5,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        algorithm=st.sampled_from(("operb", "operb-a", "fbqs", "dead-reckoning")),
        block_size=st.sampled_from((1, 37, 512, 4096)),
        backend=st.sampled_from(("thread", "node")),
    )
    def test_blocked_hub_matches_serial_per_point(
        self, seed, algorithm, block_size, backend
    ):
        """Per-device segments and checkpoints are byte-identical between the
        serial per-point reference and concurrent block ingest, for any
        block size."""
        records = build_device_log("taxi", 6, 40, seed=seed)

        def run(run_backend, run_block_size, workers=None):
            sinks: dict[str, CollectingSink] = {}

            def factory(device_id):
                sinks[device_id] = CollectingSink()
                return sinks[device_id]

            with StreamHub(
                algorithm=algorithm,
                epsilon=40.0,
                shards=8,
                sink_factory=factory,
                backend=run_backend,
                workers=workers,
                block_size=run_block_size,
            ) as hub:
                hub.push_many(records)
                hub.finish_all()
                payload = hub.checkpoint()
            segments = {device: sink.segments for device, sink in sinks.items()}
            return segments, json.dumps(payload, sort_keys=True, allow_nan=False)

        reference_segments, reference_payload = run("serial", 512)
        segments, payload = run(backend, block_size, workers=3)
        assert segments == reference_segments
        assert payload == reference_payload

    @settings(deadline=None, max_examples=5,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        cut_fraction=st.floats(min_value=0.1, max_value=0.9),
        resume_shards=st.sampled_from((None, 3, 13)),
        resume_block_size=st.sampled_from((17, 2048)),
    )
    def test_blocked_checkpoints_restore_onto_other_shard_counts(
        self, seed, cut_fraction, resume_shards, resume_block_size
    ):
        """A block-ingested checkpoint re-shards and resumes byte-identically
        under a different block size."""
        records = build_device_log("taxi", 6, 30, seed=seed)
        cut = max(1, int(len(records) * cut_fraction))

        reference_sink = CollectingSink()
        with StreamHub(
            algorithm="operb", epsilon=40.0, shards=8, shared_sink=reference_sink
        ) as hub:
            hub.push_many(records)
            hub.finish_all()

        first_sink = CollectingSink()
        with StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=8,
            shared_sink=first_sink,
            backend="thread",
            workers=2,
            block_size=64,
        ) as hub:
            hub.push_many(records[:cut])
            payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))

        second_sink = CollectingSink()
        with restore_hub(
            payload,
            shared_sink=second_sink,
            shards=resume_shards,
            backend="thread",
            workers=2,
            block_size=resume_block_size,
        ) as resumed:
            resumed.push_many(records[cut:])
            resumed.finish_all()
            stats = resumed.stats()

        assert stats.points_pushed == len(records)
        key = lambda s: (s.start.x, s.start.y, s.start.t, s.first_index, s.last_index)  # noqa: E731
        combined = sorted(first_sink.segments + second_sink.segments, key=key)
        assert combined == sorted(reference_sink.segments, key=key)


class ExplodingOnThird:
    """A misbehaving stream: raises on its third push (no native blocks)."""

    def __init__(self, epsilon):
        self.epsilon = epsilon
        self._pushes = 0

    def push(self, point):
        self._pushes += 1
        if self._pushes >= 3:
            raise RuntimeError("device firmware bug")
        return []

    def finish(self):
        return []


class TestHubBlockFailureAccounting:
    @pytest.fixture
    def exploding(self):
        register_algorithm(
            "exploding-block",
            streaming_factory=ExplodingOnThird,
            streaming_kwargs=(),
            summary="test-only failing stream",
        )(lambda trajectory, epsilon: None)
        yield "exploding-block"
        unregister_algorithm("exploding-block")

    @pytest.mark.parametrize("backend", ["thread", "node"])
    def test_mid_block_failure_accounting_matches_serial(self, exploding, backend):
        """A device that dies mid-block drops exactly the points the serial
        per-point reference would drop, and checkpoints byte-identically."""
        healthy = [(f"dev-{i}", Point(float(j * 10), 0.0, float(j)))
                   for j in range(20) for i in range(3)]
        bad = [("bad", Point(float(j), 0.0, float(j))) for j in range(10)]
        traffic = healthy + bad

        payloads = {}
        for name, backend_name in (("serial", "serial"), ("concurrent", backend)):
            hub = StreamHub(
                algorithm="operb",
                epsilon=40.0,
                shards=4,
                on_error="collect",
                backend=backend_name,
                workers=2,
            )
            with hub:
                hub.register_device("bad", algorithm=exploding)
                hub.push_many(traffic)
                hub.finish_all()
                payloads[name] = json.dumps(
                    hub.checkpoint(), sort_keys=True, allow_nan=False
                )
            assert len(hub.errors) == 1
            assert hub.errors[0].device_id == "bad"
        assert payloads["concurrent"] == payloads["serial"]
        bad_entry = next(
            entry
            for entry in json.loads(payloads["serial"])["devices"]
            if entry["device_id"] == "bad"
        )
        # 2 pushes succeeded, the failing third and the remaining 7 dropped.
        assert bad_entry["stats"]["points_pushed"] == 2
        assert bad_entry["stats"]["dropped_points"] == 8

    @pytest.mark.parametrize(
        ("backend", "ingest"),
        [
            ("serial", "push"),
            ("thread", "push"),
            ("thread", "push_many"),
            ("node", "push"),
            ("node", "push_many"),
        ],
    )
    def test_ingest_forms_match_the_serial_reference(self, exploding, backend, ingest):
        """Per-record ``push`` and ``push_many`` on every backend reproduce the
        serial ``push_many`` reference byte for byte, on batches that mix
        one-fix and multi-fix device groups and a device that fails in the
        middle of its group."""
        log = build_device_log("taxi", 6, 24, seed=11)
        per_device: dict[str, list[Point]] = {}
        for device_id, point in log:
            per_device.setdefault(device_id, []).append(point)
        # Device k reports (k % 3) + 1 fixes per round, so every shipped
        # batch holds groups of one, two and three fixes.  The failing
        # device leads with a ten-fix burst and dies on its third fix.
        traffic = [("bad", Point(float(j), 0.0, float(j))) for j in range(10)]
        cursors = {device_id: 0 for device_id in per_device}
        while cursors:
            for k, device_id in enumerate(list(cursors)):
                start = cursors[device_id]
                chunk = per_device[device_id][start : start + k % 3 + 1]
                traffic.extend((device_id, point) for point in chunk)
                cursors[device_id] = start + len(chunk)
                if cursors[device_id] == len(per_device[device_id]):
                    del cursors[device_id]

        def run(run_backend, run_ingest):
            sinks: dict[str, CollectingSink] = {}

            def factory(device_id):
                sinks[device_id] = CollectingSink()
                return sinks[device_id]

            with StreamHub(
                algorithm="operb",
                epsilon=40.0,
                shards=4,
                sink_factory=factory,
                on_error="collect",
                backend=run_backend,
                workers=2,
                block_size=16,
            ) as hub:
                hub.register_device("bad", algorithm=exploding)
                if run_ingest == "push":
                    for device_id, point in traffic:
                        hub.push(device_id, point)
                else:
                    hub.push_many(traffic)
                hub.finish_all()
                payload = json.dumps(hub.checkpoint(), sort_keys=True, allow_nan=False)
                stats = hub.stats()
            segments = {device: sink.segments for device, sink in sinks.items()}
            return segments, payload, [error.device_id for error in hub.errors], stats

        reference = run("serial", "push_many")
        segments, payload, errors, stats = run(backend, ingest)
        assert segments == reference[0]
        assert payload == reference[1]
        assert errors == reference[2] == ["bad"]
        assert stats.dropped_points == 8
        if backend != "serial" and ingest == "push":
            # A single concurrent push ships as a one-record batch.
            assert stats.batches_shipped == len(traffic)

    @pytest.fixture
    def firmware_bug_operb(self):
        """A *batched* simplifier that fails on one specific fix.

        Unlike the per-point ``ExplodingOnThird``, this one has a native
        ``push_block_steps`` whose silent steps coalesce — the failure lands
        on a scalar boundary step with a bulk-absorbed prefix still pending,
        exercising the deliver-prefix-then-raise path of the step driver.
        The failure sits in the float step, which ``push`` and the block
        driver's replays both reach.
        """
        from repro.core.config import OperbConfig

        class FirmwareBugOperb(OPERBSimplifier):
            def _step(self, x, y, t):
                if x == 999.0:
                    raise RuntimeError("device firmware bug")
                return super()._step(x, y, t)

        register_algorithm(
            "firmware-bug-operb",
            streaming_factory=lambda epsilon: FirmwareBugOperb(
                OperbConfig.optimized(epsilon)
            ),
            streaming_kwargs=(),
            batched=True,
            summary="test-only batched failing stream",
        )(lambda trajectory, epsilon: None)
        yield "firmware-bug-operb"
        unregister_algorithm("firmware-bug-operb")

    def test_failure_after_a_bulk_run_keeps_the_prefix_counted(
        self, firmware_bug_operb
    ):
        """Points bulk-absorbed before a mid-block failure stay accounted:
        checkpoints match the serial per-point reference byte for byte."""
        # 1 opening fix, a 30-point stationary dwell (bulk-absorbed by the
        # block path), the poisoned fix, then a tail that gets quarantined.
        stream = (
            [Point(0.0, 0.0, 0.0)]
            + [Point(0.0, 0.0, float(1 + j)) for j in range(30)]
            + [Point(999.0, 0.0, 40.0)]
            + [Point(float(j), 5.0, float(50 + j)) for j in range(5)]
        )
        traffic = [("bad", point) for point in stream]

        payloads = {}
        for label, backend in (("serial", "serial"), ("thread", "thread")):
            with StreamHub(
                algorithm=firmware_bug_operb,
                epsilon=40.0,
                shards=2,
                on_error="collect",
                backend=backend,
                workers=2,
            ) as hub:
                hub.push_many(traffic)
                payloads[label] = json.dumps(
                    hub.checkpoint(), sort_keys=True, allow_nan=False
                )
            assert len(hub.errors) == 1
        assert payloads["thread"] == payloads["serial"]
        entry = json.loads(payloads["serial"])["devices"][0]
        assert entry["stats"]["points_pushed"] == 31  # opening fix + dwell
        assert entry["stats"]["dropped_points"] == 6  # poisoned fix + tail

    def test_mid_block_failure_in_raise_mode_matches_per_point_drops(self, exploding):
        """Raise mode: the failing push is not dropped, the rest of the block
        is — the same accounting per-point quarantine routing produces."""
        from repro import SimplificationError

        bad = [("bad", Point(float(j), 0.0, float(j))) for j in range(10)]
        with StreamHub(
            algorithm=exploding,
            epsilon=40.0,
            shards=2,
            on_error="raise",
            backend="thread",
            workers=2,
        ) as hub:
            with pytest.raises((RuntimeError, SimplificationError), match="firmware"):
                hub.push_many(bad)
                hub.stats()
            payload = hub.checkpoint()
        entry = payload["devices"][0]
        assert entry["stats"]["points_pushed"] == 2
        # Point 3 failed (not dropped in raise mode); points 4..10 dropped.
        assert entry["stats"]["dropped_points"] == 7


class TestDegenerateStreams:
    @pytest.mark.parametrize("algorithm", sorted(CHECKPOINTABLE_STREAMING))
    @pytest.mark.parametrize("backend", ["vectorized", "scalar"])
    def test_identical_points_stream(self, algorithm, backend):
        """A parked device resending one fix: the zero-radial-vector path."""
        points = [Point(5.0, -3.0, float(i)) for i in range(40)]
        session = Simplifier(algorithm, 10.0)
        with kernels.kernel_backend(backend):
            reference = session.open_stream()
            expected = reference.feed(points) + reference.finish()
            blocked = session.open_stream()
            emitted = []
            for block in PointBlock.from_points(points).split(11):
                emitted.extend(blocked.push_block(block))
            state = _session_state(blocked)
            emitted += blocked.finish()
            per_point = session.open_stream()
            per_point.feed(points)
            assert emitted == expected
            assert state == _session_state(per_point)

    def test_long_dwell_exercises_the_bulk_paths(self):
        """An idle-heavy stream must take the kernels, not just the probes."""
        from repro.perf.workloads import IDLE_FLEET_PROFILE, PerfCase, build_idle_fleet

        case = PerfCase(
            "idle", IDLE_FLEET_PROFILE, n_trajectories=1, points_per_trajectory=2_000
        )
        points = list(build_idle_fleet(case)[0])
        for algorithm in ("operb", "operb-a", "dead-reckoning", "fbqs"):
            session = Simplifier(algorithm, 40.0)
            reference = session.open_stream()
            expected = reference.feed(points) + reference.finish()
            blocked = session.open_stream()
            emitted = blocked.push_block(PointBlock.from_points(points))
            emitted += blocked.finish()
            assert emitted == expected, algorithm


class TestFinishedAndEmptyBlocks:
    @pytest.mark.parametrize("algorithm", sorted(CHECKPOINTABLE_STREAMING))
    def test_push_block_after_finish_raises_like_push(self, algorithm):
        session = Simplifier(algorithm, 25.0)
        stream = session.open_stream()
        stream.push(Point(0.0, 0.0, 0.0))
        stream.finish()
        block = PointBlock.from_points([Point(1.0, 1.0, 1.0)])
        with pytest.raises(SimplificationError) as push_error:
            stream.push(Point(1.0, 1.0, 1.0))
        with pytest.raises(SimplificationError) as block_error:
            stream.push_block(block)
        assert str(block_error.value) == str(push_error.value)

    @pytest.mark.parametrize("algorithm", sorted(BATCHED_NATIVE) + ["dp"])
    def test_raw_push_block_after_finish_raises_like_push(self, algorithm):
        """The raw simplifiers (not just the session) enforce the lifecycle."""
        raw = Simplifier(algorithm, 25.0).open_stream().native
        raw.push(Point(0.0, 0.0, 0.0))
        raw.finish()
        block = PointBlock.from_points([Point(1.0, 1.0, 1.0)])
        with pytest.raises(SimplificationError) as push_error:
            raw.push(Point(1.0, 1.0, 1.0))
        with pytest.raises(SimplificationError) as block_error:
            raw.push_block(block)
        assert str(block_error.value) == str(push_error.value)
        with pytest.raises(SimplificationError):
            raw.push_block_steps(block)

    @pytest.mark.parametrize("algorithm", sorted(CHECKPOINTABLE_STREAMING))
    def test_empty_block_is_a_cheap_no_op(self, algorithm):
        session = Simplifier(algorithm, 25.0)
        stream = session.open_stream()
        stream.push(Point(0.0, 0.0, 0.0))
        before = _session_state(stream)
        assert stream.push_block(PointBlock.empty()) == []
        assert stream.points_pushed == 1
        assert _session_state(stream) == before

    def test_empty_block_does_not_touch_operb_statistics(self):
        raw = get_descriptor("operb").make_streaming(10.0)
        assert isinstance(raw, OPERBSimplifier)
        raw.push(Point(0.0, 0.0, 0.0))
        stats_before = dict(vars(raw.stats))
        assert raw.push_block(PointBlock.empty()) == []
        assert dict(vars(raw.stats)) == stats_before

    def test_empty_block_after_finish_still_raises(self):
        stream = Simplifier("operb", 10.0).open_stream()
        stream.finish()
        with pytest.raises(SimplificationError):
            stream.push_block(PointBlock.empty())


class TestBlockIngestMixin:
    """The shared ``simplify`` of every block-capable native simplifier."""

    @pytest.mark.parametrize("algorithm", BATCHED_NATIVE)
    def test_simplify_matches_the_session_run(self, algorithm, noisy_walk):
        raw = get_descriptor(algorithm).make_streaming(25.0)
        assert isinstance(raw, BlockIngestMixin)
        representation = raw.simplify(noisy_walk)
        expected = Simplifier(algorithm, 25.0).run(noisy_walk)
        assert representation.segments == expected.segments
        assert representation.source_size == len(noisy_walk)
        assert representation.algorithm == raw.name

    @pytest.mark.parametrize("algorithm", BATCHED_NATIVE)
    def test_simplify_requires_a_fresh_instance(self, algorithm, noisy_walk):
        raw = get_descriptor(algorithm).make_streaming(25.0)
        raw.push(Point(0.0, 0.0, 0.0))
        with pytest.raises(SimplificationError, match="fresh simplifier"):
            raw.simplify(noisy_walk)
        finished = get_descriptor(algorithm).make_streaming(25.0)
        finished.finish()
        with pytest.raises(SimplificationError, match="fresh simplifier"):
            finished.simplify(noisy_walk)


class MinimalStreaming:
    """A third-party style simplifier: push/finish only, no block protocol."""

    def __init__(self, epsilon):
        self.epsilon = epsilon
        self._previous = None
        self._previous_index = -1
        self._start = None
        self._start_index = -1
        self._finished = False

    def push(self, point):
        from repro.trajectory.piecewise import SegmentRecord

        if self._finished:
            raise SimplificationError("push() called after finish()")
        self._previous_index += 1
        emitted = []
        if self._start is None:
            self._start = point
            self._start_index = self._previous_index
        elif self._previous_index - self._start_index >= 3:
            emitted.append(
                SegmentRecord(
                    start=self._start,
                    end=point,
                    first_index=self._start_index,
                    last_index=self._previous_index,
                )
            )
            self._start = point
            self._start_index = self._previous_index
        self._previous = point
        return emitted

    def finish(self):
        self._finished = True
        return []


class TestGenericFallback:
    @pytest.fixture
    def minimal(self):
        register_algorithm(
            "minimal-stream",
            streaming_factory=MinimalStreaming,
            streaming_kwargs=(),
            summary="test-only minimal streaming algorithm",
        )(lambda trajectory, epsilon: None)
        yield "minimal-stream"
        unregister_algorithm("minimal-stream")

    def test_non_batched_algorithms_accept_blocks_via_fallback(self, minimal):
        descriptor = get_descriptor(minimal)
        assert descriptor.streaming and not descriptor.batched
        assert not descriptor.block_capable
        points = [Point(float(i), float(i % 5), float(i)) for i in range(23)]
        session = Simplifier(minimal, 10.0)

        reference = session.open_stream()
        expected = reference.feed(points) + reference.finish()

        blocked = session.open_stream()
        emitted = []
        for block in PointBlock.from_points(points).split(7):
            emitted.extend(blocked.push_block(block))
        emitted += blocked.finish()
        assert emitted == expected
        assert blocked.points_pushed == len(points)

    def test_non_batched_algorithms_work_in_a_blocked_hub(self, minimal):
        records = [(f"d{i}", Point(float(j), 0.0, float(j)))
                   for j in range(30) for i in range(3)]

        def run(backend):
            local = {}

            def local_factory(device_id):
                local[device_id] = CollectingSink()
                return local[device_id]

            with StreamHub(
                algorithm=minimal,
                epsilon=10.0,
                shards=4,
                sink_factory=local_factory,
                backend=backend,
                workers=2,
                block_size=16,
            ) as hub:
                hub.push_many(records)
                hub.finish_all()
            return {d: s.segments for d, s in local.items()}

        assert run("thread") == run("serial")


class TestBatchedCapability:
    def test_builtin_streaming_algorithms_are_batched(self):
        for name in ("operb", "raw-operb", "operb-a", "raw-operb-a", "fbqs", "dead-reckoning"):
            descriptor = get_descriptor(name)
            assert descriptor.batched
            assert descriptor.block_capable
            assert descriptor.capabilities()["batched"] is True

    def test_batch_only_algorithms_are_block_capable_via_adapter(self):
        for name in ("dp", "opw", "bqs", "uniform"):
            descriptor = get_descriptor(name)
            assert not descriptor.batched
            assert descriptor.block_capable  # the adapter ingests blocks in O(1)

    def test_batched_requires_a_streaming_factory(self):
        with pytest.raises(InvalidParameterError, match="batched"):
            AlgorithmDescriptor(name="x", batch=lambda t, e: None, batched=True)

    def test_cli_table_shows_the_batched_column(self, capsys):
        from repro.cli.main import main

        assert main(["algorithms"]) == 0
        output = capsys.readouterr().out
        assert "batched" in output
        assert "fallback" not in output  # every built-in has a native path


class TestBufferedAdapterBlocks:
    def test_adapter_buffers_blocks_in_constant_time_per_block(self):
        adapter = BufferedBatchAdapter("dp", 10.0)
        points = [Point(float(i), 0.0, float(i)) for i in range(100)]
        adapter.push(points[0])
        assert adapter.push_block(PointBlock.from_points(points[1:50])) == []
        adapter.push(points[50])
        assert adapter.push_block(PointBlock.from_points(points[51:])) == []
        assert adapter.buffered_points == 100
        segments = adapter.finish()
        reference = BufferedBatchAdapter("dp", 10.0)
        for point in points:
            reference.push(point)
        assert segments == reference.finish()

    def test_adapter_snapshot_is_identical_across_ingest_forms(self):
        points = [Point(float(i), float(i * 2), float(i)) for i in range(30)]
        per_point = BufferedBatchAdapter("dp", 10.0)
        for point in points:
            per_point.push(point)
        blocked = BufferedBatchAdapter("dp", 10.0)
        blocked.push_block(PointBlock.from_points(points[:13]))
        for point in points[13:17]:
            blocked.push(point)
        blocked.push_block(PointBlock.from_points(points[17:]))
        assert json.dumps(blocked.snapshot(), sort_keys=True) == json.dumps(
            per_point.snapshot(), sort_keys=True
        )

    def test_adapter_restore_roundtrip_matches(self):
        points = [Point(float(i), float(i % 7), float(i)) for i in range(40)]
        source = BufferedBatchAdapter("dp", 10.0)
        source.push_block(PointBlock.from_points(points))
        state = json.loads(json.dumps(source.snapshot(), allow_nan=False))
        restored = BufferedBatchAdapter("dp", 10.0)
        restored.restore(state)
        assert restored.buffered_points == 40
        assert restored.finish() == source.finish()


class TestPointBlock:
    def test_from_points_round_trips(self):
        points = [Point(1.5, -2.25, 3.0), Point(4.0, 5.0, 6.0)]
        block = PointBlock.from_points(points)
        assert len(block) == 2
        assert block.point(0) == points[0]
        assert block[1] == points[1]
        assert PointBlock(block.xs, block.ys, block.ts)[1] == points[1]
        assert list(block) == points

    def test_from_trajectory_is_zero_copy(self):
        trajectory = Trajectory([0.0, 1.0], [2.0, 3.0], [0.0, 1.0])
        block = PointBlock.from_trajectory(trajectory)
        assert block.xs is trajectory.xs
        assert len(block) == 2

    def test_split_and_slice(self):
        points = [Point(float(i), 0.0, float(i)) for i in range(10)]
        block = PointBlock.from_points(points)
        parts = block.split(4)
        assert [len(part) for part in parts] == [4, 4, 2]
        assert list(PointBlock.concat(parts)) == points
        assert list(block.slice(2, 5)) == points[2:5]

    def test_split_rejects_non_positive_sizes(self):
        from repro import InvalidTrajectoryError

        with pytest.raises(InvalidTrajectoryError):
            PointBlock.empty().split(0)

    def test_mismatched_arrays_are_rejected(self):
        from repro import InvalidTrajectoryError

        with pytest.raises(InvalidTrajectoryError):
            PointBlock([0.0, 1.0], [0.0], [0.0, 1.0])

    def test_empty_block(self):
        block = PointBlock.empty()
        assert len(block) == 0
        assert list(block) == []
        assert PointBlock.concat([]).xs.shape == (0,)
