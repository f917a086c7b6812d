"""Backend equivalence: serial == thread == node, byte for byte.

The execution runtime's whole contract is that a backend is a *pure
performance choice*.  These hypothesis properties lock that in for both
consumers of :mod:`repro.exec`:

- the fleet executor: ``run_many`` produces identical representations on
  every backend;
- the streaming hub: the same device log produces byte-identical
  per-device segments, byte-identical checkpoints, and checkpoints taken
  under one backend restore under any other (and onto any shard count)
  with byte-identical continuations.

Node workers are forked per example, so the examples are few and small —
the point is the equivalence relation, not coverage of the algorithms
(their own suites do that).
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Simplifier
from repro.datasets import generate_dataset
from repro.perf.workloads import build_device_log
from repro.streaming import CollectingSink, StreamHub, restore_hub

BACKENDS = ("serial", "thread", "node")

EQUIVALENCE_SETTINGS = dict(
    deadline=None,
    max_examples=5,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _run_hub(
    records,
    *,
    backend: str,
    workers: int | None = None,
    shards: int = 8,
    algorithm: str = "operb",
) -> tuple[dict, dict]:
    """Replay ``records``; returns (per-device segments, checkpoint payload)."""
    sinks: dict[str, CollectingSink] = {}

    def factory(device_id: str) -> CollectingSink:
        sinks[device_id] = CollectingSink()
        return sinks[device_id]

    with StreamHub(
        algorithm=algorithm,
        epsilon=40.0,
        shards=shards,
        sink_factory=factory,
        backend=backend,
        workers=workers,
    ) as hub:
        hub.push_many(records)
        hub.finish_all()
        payload = hub.checkpoint()
    segments = {device_id: sink.segments for device_id, sink in sinks.items()}
    return segments, payload


class TestRunManyEquivalence:
    @given(
        n_trajectories=st.integers(min_value=2, max_value=5),
        points=st.integers(min_value=40, max_value=150),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        algorithm=st.sampled_from(("operb", "operb-a", "fbqs")),
    )
    @settings(**EQUIVALENCE_SETTINGS)
    def test_backends_produce_identical_representations(
        self, n_trajectories, points, seed, algorithm
    ):
        fleet = generate_dataset(
            "taxi",
            n_trajectories=n_trajectories,
            points_per_trajectory=points,
            seed=seed,
        )
        session = Simplifier(algorithm, 40.0)
        reference = session.run_many(fleet, workers=1)
        assert reference.backend == "serial" and reference.workers == 1
        for backend in ("thread", "node"):
            result = session.run_many(fleet, workers=2, backend=backend)
            assert result.backend == backend
            assert result.workers == 2
            for ours, theirs in zip(result.representations, reference.representations):
                assert ours.segments == theirs.segments


class TestHubEquivalence:
    @given(
        n_devices=st.integers(min_value=3, max_value=10),
        points=st.integers(min_value=15, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        algorithm=st.sampled_from(("operb", "operb-a")),
        workers=st.integers(min_value=2, max_value=4),
    )
    @settings(**EQUIVALENCE_SETTINGS)
    def test_backends_produce_identical_segments_and_checkpoints(
        self, n_devices, points, seed, algorithm, workers
    ):
        records = build_device_log("taxi", n_devices, points, seed=seed)
        reference_segments, reference_payload = _run_hub(
            records, backend="serial", algorithm=algorithm
        )
        reference_json = json.dumps(reference_payload, sort_keys=True, allow_nan=False)
        for backend in ("thread", "node"):
            segments, payload = _run_hub(
                records, backend=backend, workers=workers, algorithm=algorithm
            )
            assert segments == reference_segments
            assert json.dumps(payload, sort_keys=True, allow_nan=False) == reference_json

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        cut_fraction=st.floats(min_value=0.1, max_value=0.9),
        checkpoint_backend=st.sampled_from(BACKENDS),
        resume_backend=st.sampled_from(BACKENDS),
        resume_shards=st.sampled_from((None, 3, 13)),
    )
    @settings(**EQUIVALENCE_SETTINGS)
    def test_checkpoints_are_mutually_restorable_across_backends_and_shards(
        self, seed, cut_fraction, checkpoint_backend, resume_backend, resume_shards
    ):
        records = build_device_log("taxi", 6, 30, seed=seed)
        cut = max(1, int(len(records) * cut_fraction))

        reference_segments, _ = _run_hub(records, backend="serial")

        first_sink = CollectingSink()
        with StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=8,
            shared_sink=first_sink,
            backend=checkpoint_backend,
            workers=2,
        ) as hub:
            hub.push_many(records[:cut])
            payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))

        second_sink = CollectingSink()
        with restore_hub(
            payload,
            shared_sink=second_sink,
            shards=resume_shards,
            backend=resume_backend,
            workers=2,
        ) as resumed:
            if resume_shards is not None:
                assert resumed.n_shards == resume_shards
            resumed.push_many(records[cut:])
            resumed.finish_all()
            stats = resumed.stats()

        assert stats.points_pushed == len(records)
        assert sum(stats.shard_points) == len(records)
        # Segment order in a shared sink is only deterministic per device;
        # group by device before comparing against the serial reference.
        combined = first_sink.segments + second_sink.segments
        key = lambda segment: (  # noqa: E731 — local sort key
            segment.start.x,
            segment.start.y,
            segment.start.t,
            segment.first_index,
            segment.last_index,
        )
        flat_reference = [
            segment
            for segments in reference_segments.values()
            for segment in segments
        ]
        assert sorted(combined, key=key) == sorted(flat_reference, key=key)
