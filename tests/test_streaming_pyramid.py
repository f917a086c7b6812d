"""Epsilon-pyramid properties: nesting contract and finest-level identity.

Two guarantees make the pyramid serveable:

* **nesting** — every cascaded coarse level honours its *own* error bound
  against the raw stream, not just against the finer level it re-ingested
  (the triangle-inequality argument in :mod:`repro.streaming.pyramid`);
* **finest-level identity** — level 0 of a pyramid run is byte-identical
  to a direct single-epsilon run: same segments, same statistics, same
  snapshots, on every execution backend and for arbitrary block splits.

These hypothesis properties lock both in, alongside the configuration
errors, the per-level statistics, and the format-2 checkpoint/restore
round-trip (including re-sharded resumes).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import InvalidParameterError, Point, SimplificationError, Trajectory
from repro.api import Simplifier, get_descriptor, list_descriptors
from repro.exceptions import CheckpointError
from repro.metrics import check_error_bound
from repro.perf.workloads import build_device_log
from repro.streaming import (
    CollectingSink,
    PyramidSession,
    StreamHub,
    restore_hub,
    validate_epsilon_ladder,
)
from repro.streaming.hub import CHECKPOINT_FORMAT, PYRAMID_CHECKPOINT_FORMAT
from repro.trajectory import PointBlock
from repro.trajectory.piecewise import PiecewiseRepresentation

# Every algorithm the pyramid can cascade: error bounded with the
# push_segment re-ingest hook (natively, or batch-only behind the adapter).
PYRAMID_STREAMING = tuple(
    descriptor.name
    for descriptor in list_descriptors()
    if descriptor.pyramid_capable and descriptor.snapshot_capable
)

COMMON_SETTINGS = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def random_trajectories(draw, max_points: int = 80):
    """Random-walk trajectories from sub-metre jitter to km-scale legs."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    step_scale = draw(st.floats(min_value=0.5, max_value=500.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.normal(0.0, step_scale, n))
    ys = np.cumsum(rng.normal(0.0, step_scale, n))
    return Trajectory(xs, ys, np.arange(n, dtype=float))


@st.composite
def epsilon_ladders(draw):
    """Strictly ascending ladders, 2-4 levels, mixed spacing ratios."""
    finest = draw(st.floats(min_value=0.5, max_value=60.0))
    k = draw(st.integers(min_value=2, max_value=4))
    ladder = [finest]
    for _ in range(k - 1):
        ladder.append(ladder[-1] * draw(st.floats(min_value=1.25, max_value=4.0)))
    return tuple(ladder)


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


def _run_pyramid(algorithm, ladder, points):
    """Feed ``points`` through a pyramid; returns per-level segment lists."""
    session = PyramidSession(Simplifier(algorithm, ladder[0]), ladder)
    by_level = [session.feed(points) + session.finish()]
    by_level.extend([] for _ in ladder[1:])
    for level, segments in session.drain_levels():
        by_level[level] = segments
    return by_level


class TestLadderValidation:
    def test_returns_float_tuple(self):
        assert validate_epsilon_ladder([1, 2.5, 10]) == (1.0, 2.5, 10.0)

    def test_single_level_is_allowed(self):
        assert validate_epsilon_ladder((7.5,)) == (7.5,)

    def test_empty_ladder_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            validate_epsilon_ladder([])

    def test_non_numeric_entries_are_rejected(self):
        with pytest.raises(InvalidParameterError):
            validate_epsilon_ladder(["fine", "coarse"])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_levels_are_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="positive finite"):
            validate_epsilon_ladder([10.0, bad])

    @pytest.mark.parametrize("ladder", [(10.0, 10.0), (20.0, 10.0), (1.0, 5.0, 4.0)])
    def test_non_ascending_ladders_are_rejected(self, ladder):
        with pytest.raises(InvalidParameterError, match="strictly ascending"):
            validate_epsilon_ladder(ladder)


class TestPyramidSessionConfig:
    def test_simplifier_epsilon_must_match_finest_level(self):
        with pytest.raises(InvalidParameterError, match="finest"):
            PyramidSession(Simplifier("operb", 20.0), (10.0, 40.0))

    def test_non_pyramid_capable_algorithm_is_rejected(self):
        assert not get_descriptor("dead-reckoning").pyramid_capable
        with pytest.raises(InvalidParameterError, match="pyramid"):
            PyramidSession(Simplifier("dead-reckoning", 10.0), (10.0, 40.0))

    def test_single_level_skips_the_capability_check(self):
        session = PyramidSession(Simplifier("dead-reckoning", 10.0), (10.0,))
        assert session.levels == 1
        session.finish()
        assert session.finished
        assert session.drain_levels() == []

    def test_sed_batch_algorithms_cascade_via_the_adapter(self):
        assert get_descriptor("dp-sed").pyramid_capable
        points = [Point(float(i), float(i % 7) * 5.0, float(i)) for i in range(40)]
        by_level = _run_pyramid("dp-sed", (5.0, 15.0), points)
        assert len(by_level) == 2
        assert by_level[0]  # the finest level produced segments

    def test_line_distance_window_algorithms_are_rejected(self):
        # fbqs/opw/bqs certify against each segment's infinite line, so
        # covered points may project beyond the emitted endpoints — the
        # endpoint-only cascade cannot honour the coarse bound.
        for name in ("fbqs", "opw", "bqs", "dp"):
            assert not get_descriptor(name).pyramid_capable, name
        with pytest.raises(InvalidParameterError, match="pyramid"):
            PyramidSession(Simplifier("fbqs", 10.0), (10.0, 40.0))

    def test_drain_levels_pops_each_batch_once(self):
        points = [Point(float(i * 10), float((i % 3) * 30), float(i)) for i in range(60)]
        session = PyramidSession(Simplifier("operb", 10.0), (10.0, 40.0, 120.0))
        session.feed(points)
        session.finish()
        drained = dict(session.drain_levels())
        assert set(drained) <= {1, 2}
        assert session.drain_levels() == []


class TestNestingContract:
    @settings(**COMMON_SETTINGS)
    @given(
        trajectory=random_trajectories(),
        ladder=epsilon_ladders(),
        algorithm=st.sampled_from(PYRAMID_STREAMING),
    )
    def test_every_level_honours_its_bound_against_the_raw_stream(
        self, trajectory, ladder, algorithm
    ):
        """The cascade's whole point: level i re-ingests level i-1's segments
        yet still deviates from the *raw* points by at most epsilons[i]."""
        points = list(trajectory)
        by_level = _run_pyramid(algorithm, ladder, points)
        for level, segments in enumerate(by_level):
            representation = PiecewiseRepresentation(
                segments=list(segments),
                source_size=len(points),
                algorithm=algorithm,
            )
            assert check_error_bound(trajectory, representation, ladder[level]), (
                f"{algorithm}: level {level} (epsilon {ladder[level]}) violates "
                f"its bound against the raw stream"
            )

    @settings(**COMMON_SETTINGS)
    @given(
        trajectory=random_trajectories(),
        ladder=epsilon_ladders(),
        algorithm=st.sampled_from(PYRAMID_STREAMING),
    )
    def test_finest_level_is_byte_identical_to_a_direct_run(
        self, trajectory, ladder, algorithm
    ):
        points = list(trajectory)
        reference = Simplifier(algorithm, ladder[0]).open_stream()
        expected = reference.feed(points) + reference.finish()
        assert _run_pyramid(algorithm, ladder, points)[0] == expected

    @settings(**COMMON_SETTINGS)
    @given(
        trajectory=random_trajectories(),
        ladder=epsilon_ladders(),
        algorithm=st.sampled_from(PYRAMID_STREAMING),
        data=st.data(),
    )
    def test_block_splits_do_not_change_any_level(
        self, trajectory, ladder, algorithm, data
    ):
        """The block boundary stays an execution choice at every level."""
        points = list(trajectory)
        splits = data.draw(block_splits(len(points)))
        expected = _run_pyramid(algorithm, ladder, points)

        session = PyramidSession(Simplifier(algorithm, ladder[0]), ladder)
        by_level = [[] for _ in ladder]
        block = PointBlock.from_points(points)
        for start, stop in splits:
            by_level[0].extend(session.push_block(block.slice(start, stop)))
        by_level[0].extend(session.finish())
        for level, segments in session.drain_levels():
            by_level[level].extend(segments)
        assert by_level == expected
        assert session.points_pushed == len(points)


class TestPyramidSessionCheckpoint:
    @settings(**COMMON_SETTINGS)
    @given(
        trajectory=random_trajectories(max_points=50),
        ladder=epsilon_ladders(),
        algorithm=st.sampled_from(PYRAMID_STREAMING),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_snapshot_restore_resumes_every_level_byte_identically(
        self, trajectory, ladder, algorithm, cut_fraction
    ):
        points = list(trajectory)
        cut = int(round(cut_fraction * len(points)))
        expected = _run_pyramid(algorithm, ladder, points)

        first = PyramidSession(Simplifier(algorithm, ladder[0]), ladder)
        by_level = [first.feed(points[:cut])]
        by_level.extend([] for _ in ladder[1:])
        for level, segments in first.drain_levels():
            by_level[level].extend(segments)
        state = json.loads(json.dumps(first.snapshot(), allow_nan=False))

        resumed = PyramidSession(Simplifier(algorithm, ladder[0]), ladder)
        resumed.restore(state)
        by_level[0].extend(resumed.feed(points[cut:]) + resumed.finish())
        for level, segments in resumed.drain_levels():
            by_level[level].extend(segments)
        assert by_level == expected

    def test_restore_requires_a_fresh_session(self):
        ladder = (10.0, 40.0)
        source = PyramidSession(Simplifier("operb", 10.0), ladder)
        state = source.snapshot()
        used = PyramidSession(Simplifier("operb", 10.0), ladder)
        used.push(Point(0.0, 0.0, 0.0))
        with pytest.raises(SimplificationError, match="fresh"):
            used.restore(state)

    def test_restore_rejects_a_different_ladder(self):
        state = PyramidSession(Simplifier("operb", 10.0), (10.0, 40.0)).snapshot()
        other = PyramidSession(Simplifier("operb", 10.0), (10.0, 80.0))
        with pytest.raises(SimplificationError, match="epsilons"):
            other.restore(state)


class TestHubPyramidConfig:
    def test_epsilon_must_agree_with_the_finest_level(self):
        with pytest.raises(InvalidParameterError, match="conflicts"):
            StreamHub(algorithm="operb", epsilon=20.0, epsilons=(10.0, 40.0))

    def test_matching_epsilon_and_ladder_coexist(self):
        with StreamHub(algorithm="operb", epsilon=10.0, epsilons=(10.0, 40.0)) as hub:
            assert hub.pyramid
            assert hub.epsilons == (10.0, 40.0)

    def test_single_rung_ladder_collapses_to_a_plain_hub(self):
        records = build_device_log("taxi", 3, 25, seed=11)

        def run(**kwargs):
            with StreamHub(algorithm="operb", shards=4, **kwargs) as hub:
                hub.push_many(records)
                hub.finish_all()
                return json.dumps(hub.checkpoint(), sort_keys=True, allow_nan=False)

        ladder_payload = run(epsilons=(40.0,))
        assert json.loads(ladder_payload)["format"] == CHECKPOINT_FORMAT
        assert ladder_payload == run(epsilon=40.0)

    def test_level_sink_factory_requires_a_multi_level_ladder(self):
        with pytest.raises(InvalidParameterError, match="level_sink_factory"):
            StreamHub(
                algorithm="operb",
                epsilon=10.0,
                level_sink_factory=lambda device_id, level: CollectingSink(),
            )

    def test_non_pyramid_capable_default_algorithm_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="pyramid"):
            StreamHub(algorithm="dead-reckoning", epsilons=(10.0, 40.0))

    def test_per_device_overrides_are_refused_on_a_pyramid_hub(self):
        with StreamHub(algorithm="operb", epsilons=(10.0, 40.0)) as hub:
            with pytest.raises(InvalidParameterError, match="overrides"):
                hub.register_device("d1", epsilon=25.0)

    def test_stats_report_the_ladder_and_per_level_counts(self):
        records = build_device_log("taxi", 3, 40, seed=3)
        with StreamHub(algorithm="operb", epsilons=(40.0, 80.0, 160.0)) as hub:
            hub.push_many(records)
            hub.finish_all()
            stats = hub.stats()
        assert stats.epsilons == [40.0, 80.0, 160.0]
        assert stats.segments_by_level is not None
        assert len(stats.segments_by_level) == 3
        assert stats.segments_by_level[0] == stats.segments_emitted
        assert all(
            finer >= coarser
            for finer, coarser in zip(
                stats.segments_by_level, stats.segments_by_level[1:]
            )
        )
        as_dict = stats.as_dict()
        assert as_dict["epsilons"] == [40.0, 80.0, 160.0]
        assert as_dict["segments_by_level"] == stats.segments_by_level

    def test_single_epsilon_stats_omit_the_pyramid_fields(self):
        with StreamHub(algorithm="operb", epsilon=40.0) as hub:
            stats = hub.stats()
        assert stats.epsilons is None
        assert stats.segments_by_level is None
        assert "epsilons" not in stats.as_dict()

    def test_level_sinks_receive_the_coarse_segments(self):
        records = build_device_log("taxi", 3, 40, seed=9)
        finest: dict[str, CollectingSink] = {}
        coarse: dict[tuple[str, int], CollectingSink] = {}
        with StreamHub(
            algorithm="operb",
            epsilons=(40.0, 80.0, 160.0),
            sink_factory=lambda device_id: finest.setdefault(device_id, CollectingSink()),
            level_sink_factory=lambda device_id, level: coarse.setdefault(
                (device_id, level), CollectingSink()
            ),
        ) as hub:
            hub.push_many(records)
            hub.finish_all()
            stats = hub.stats()
        assert {level for _, level in coarse} == {1, 2}
        assert sum(len(sink.segments) for sink in finest.values()) == (
            stats.segments_by_level[0]
        )
        for level in (1, 2):
            routed = sum(
                len(sink.segments)
                for (_, sink_level), sink in coarse.items()
                if sink_level == level
            )
            assert routed == stats.segments_by_level[level]

    def test_a_raising_level_sink_detaches_only_that_level(self):
        class ExplodingSink:
            def accept(self, segment):
                raise OSError("disk full")

        records = build_device_log("taxi", 1, 60, seed=2)
        finest = CollectingSink()
        coarse: dict[tuple[str, int], CollectingSink] = {}

        def level_factory(device_id, level):
            if level == 1:
                return ExplodingSink()
            return coarse.setdefault((device_id, level), CollectingSink())

        with StreamHub(
            algorithm="operb",
            epsilons=(40.0, 80.0, 160.0),
            shared_sink=finest,
            level_sink_factory=level_factory,
        ) as hub:
            hub.push_many(records)
            hub.finish_all()
            stats = hub.stats()
        assert stats.sink_failures == 1
        assert stats.failed == 0  # the stream itself is not quarantined
        assert len(finest.segments) == stats.segments_by_level[0]
        routed_l2 = sum(len(sink.segments) for sink in coarse.values())
        assert routed_l2 == stats.segments_by_level[2]


class TestHubPyramidEquivalence:
    @settings(deadline=None, max_examples=5,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        algorithm=st.sampled_from(("operb", "operb-a", "dp-sed")),
        backend=st.sampled_from(("serial", "thread", "node")),
        block_size=st.sampled_from((1, 37, 512)),
    )
    def test_finest_level_matches_a_single_epsilon_hub(
        self, seed, algorithm, backend, block_size
    ):
        """Level 0 of a pyramid hub is byte-identical to a plain hub — on
        every backend, for any block size."""
        records = build_device_log("taxi", 5, 40, seed=seed)

        def run(epsilons=None, epsilon=None, run_backend="serial", run_block=512):
            sinks: dict[str, CollectingSink] = {}
            with StreamHub(
                algorithm=algorithm,
                epsilon=epsilon,
                epsilons=epsilons,
                shards=8,
                sink_factory=lambda d: sinks.setdefault(d, CollectingSink()),
                backend=run_backend,
                workers=2 if run_backend != "serial" else None,
                block_size=run_block,
            ) as hub:
                hub.push_many(records)
                hub.finish_all()
            return {device: sink.segments for device, sink in sinks.items()}

        reference = run(epsilon=40.0)
        pyramid = run(
            epsilons=(40.0, 80.0, 160.0), run_backend=backend, run_block=block_size
        )
        assert pyramid == reference

    @settings(deadline=None, max_examples=5,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        cut_fraction=st.floats(min_value=0.1, max_value=0.9),
        resume_shards=st.sampled_from((None, 3, 13)),
        resume_backend=st.sampled_from(("serial", "thread")),
    )
    def test_resharded_pyramid_checkpoints_resume_every_level(
        self, seed, cut_fraction, resume_shards, resume_backend
    ):
        """A format-2 checkpoint restores onto any shard count and backend
        with byte-identical segments at *every* level."""
        ladder = (40.0, 80.0, 160.0)
        records = build_device_log("taxi", 5, 30, seed=seed)
        cut = max(1, int(len(records) * cut_fraction))

        def collectors():
            store: dict[tuple[str, int], CollectingSink] = {}
            return (
                store,
                lambda d: store.setdefault((d, 0), CollectingSink()),
                lambda d, level: store.setdefault((d, level), CollectingSink()),
            )

        reference, ref_sink, ref_level_sink = collectors()
        with StreamHub(
            algorithm="operb",
            epsilons=ladder,
            shards=8,
            sink_factory=ref_sink,
            level_sink_factory=ref_level_sink,
        ) as hub:
            hub.push_many(records)
            hub.finish_all()

        first, first_sink, first_level_sink = collectors()
        with StreamHub(
            algorithm="operb",
            epsilons=ladder,
            shards=8,
            sink_factory=first_sink,
            level_sink_factory=first_level_sink,
        ) as hub:
            hub.push_many(records[:cut])
            payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))
        assert payload["format"] == PYRAMID_CHECKPOINT_FORMAT
        assert payload["hub"]["epsilons"] == list(ladder)

        second, second_sink, second_level_sink = collectors()
        with restore_hub(
            payload,
            sink_factory=second_sink,
            level_sink_factory=second_level_sink,
            shards=resume_shards,
            backend=resume_backend,
            workers=2 if resume_backend != "serial" else None,
            block_size=64,
        ) as resumed:
            assert resumed.epsilons == ladder
            resumed.push_many(records[cut:])
            resumed.finish_all()
            stats = resumed.stats()

        assert stats.points_pushed == len(records)
        combined: dict[tuple[str, int], list] = {}
        for part in (first, second):
            for key, sink in part.items():
                combined.setdefault(key, []).extend(sink.segments)
        expected = {key: sink.segments for key, sink in reference.items() if sink.segments}
        combined = {key: segments for key, segments in combined.items() if segments}
        assert combined == expected

    def test_tampered_format_stamp_is_rejected(self):
        with StreamHub(algorithm="operb", epsilons=(10.0, 40.0)) as hub:
            hub.push("d1", Point(0.0, 0.0, 0.0))
            payload = hub.checkpoint()
        payload["format"] = CHECKPOINT_FORMAT
        with pytest.raises(CheckpointError, match="inconsistent"):
            restore_hub(payload)
