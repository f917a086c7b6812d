"""Tests for the multi-device streaming hub and its checkpoint persistence."""

from __future__ import annotations

import json

import pytest

from repro import CheckpointError, InvalidParameterError, Point, SimplificationError
from repro.api import register_algorithm, unregister_algorithm
from repro.streaming import (
    CollectingSink,
    StreamHub,
    load_checkpoint,
    read_point_log,
    restore_hub,
    save_checkpoint,
    shard_index,
    write_point_log,
)


def drive(records, *, shards=8, resume_at=None, **hub_kwargs):
    """Replay ``records`` through a hub; optionally crash/resume mid-stream.

    Returns ``(segments, hub)`` where ``segments`` is everything the shared
    sink received (across both processes when resuming).
    """
    sink = CollectingSink()
    hub = StreamHub(
        algorithm=hub_kwargs.pop("algorithm", "operb"),
        epsilon=hub_kwargs.pop("epsilon", 40.0),
        shards=shards,
        shared_sink=sink,
        **hub_kwargs,
    )
    if resume_at is None:
        hub.push_many(records)
        hub.finish_all()
        return sink.segments, hub
    hub.push_many(records[:resume_at])
    payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))
    resumed_sink = CollectingSink()
    resumed = restore_hub(payload, shared_sink=resumed_sink)
    resumed.push_many(records[resume_at:])
    resumed.finish_all()
    return sink.segments + resumed_sink.segments, resumed


class TestHubBasics:
    def test_devices_register_implicitly_on_first_push(self):
        hub = StreamHub(algorithm="operb", epsilon=40.0, shards=4)
        assert "cab-1" not in hub
        hub.push("cab-1", Point(0.0, 0.0, 0.0))
        assert "cab-1" in hub
        assert len(hub) == 1
        assert hub.device("cab-1").algorithm == "operb"

    def test_explicit_registration_with_per_device_config(self):
        hub = StreamHub(algorithm="operb", epsilon=40.0, shards=4)
        premium = hub.register_device("cab-2", algorithm="operb-a", epsilon=10.0)
        assert premium.algorithm == "operb-a"
        assert premium.simplifier.epsilon == 10.0
        with pytest.raises(InvalidParameterError, match="already registered"):
            hub.register_device("cab-2")

    def test_per_device_opts_overlay_hub_defaults(self):
        hub = StreamHub(
            algorithm="operb",
            epsilon=40.0,
            options={"opt_two_sided_deviation": False, "opt_aggressive_rotation": False},
        )
        # Same algorithm: the override merges with (not replaces) the defaults.
        device = hub.register_device("cab-5", opt_two_sided_deviation=True)
        assert device.simplifier.opts == {
            "opt_two_sided_deviation": True,
            "opt_aggressive_rotation": False,
        }
        # Epsilon-only override also inherits the defaults.
        assert hub.register_device("cab-6", epsilon=20.0).simplifier.opts == {
            "opt_two_sided_deviation": False,
            "opt_aggressive_rotation": False,
        }
        # A different algorithm starts clean (the defaults may not apply).
        assert hub.register_device("cab-7", algorithm="fbqs").simplifier.opts == {}

    def test_unknown_device_lookup_rejected(self):
        hub = StreamHub(algorithm="operb", epsilon=40.0)
        with pytest.raises(InvalidParameterError, match="not registered"):
            hub.device("ghost")

    def test_invalid_configuration_fails_fast(self):
        with pytest.raises(InvalidParameterError):
            StreamHub(algorithm="operb", epsilon=40.0, shards=0)
        with pytest.raises(InvalidParameterError):
            StreamHub(algorithm="operb", epsilon=40.0, on_error="ignore")
        with pytest.raises(InvalidParameterError):
            StreamHub(algorithm="operb")  # error bounded without an epsilon
        hub = StreamHub(algorithm="operb", epsilon=40.0)
        with pytest.raises(InvalidParameterError):
            hub.register_device("cab-3", bogus=True)

    def test_sink_factory_and_shared_sink_are_exclusive(self):
        with pytest.raises(InvalidParameterError, match="not both"):
            StreamHub(
                algorithm="operb",
                epsilon=40.0,
                sink_factory=lambda device_id: CollectingSink(),
                shared_sink=CollectingSink(),
            )

    def test_sharding_is_deterministic_and_total(self):
        ids = [f"dev-{i}" for i in range(500)]
        assignment = {device_id: shard_index(device_id, 7) for device_id in ids}
        assert assignment == {device_id: shard_index(device_id, 7) for device_id in ids}
        assert set(assignment.values()) <= set(range(7))
        hub = StreamHub(algorithm="operb", epsilon=40.0, shards=7)
        for device_id in ids:
            hub.register_device(device_id)
        assert sum(len(shard) for shard in hub.shards) == 500
        for shard in hub.shards:
            for device_id in shard.devices:
                assert shard_index(device_id, 7) == shard.index

    def test_per_device_sinks(self, device_point_log):
        sinks: dict[str, CollectingSink] = {}

        def factory(device_id: str) -> CollectingSink:
            sinks[device_id] = CollectingSink()
            return sinks[device_id]

        hub = StreamHub(algorithm="operb", epsilon=40.0, sink_factory=factory)
        hub.push_many(device_point_log)
        hub.finish_all()
        assert len(sinks) == len(hub)
        assert sum(len(sink.segments) for sink in sinks.values()) == hub.segments_emitted

    def test_stats_accounting(self, device_point_log):
        segments, hub = drive(device_point_log)
        stats = hub.stats()
        assert stats.devices == 100
        assert stats.finished == 100
        assert stats.active == 0 and stats.failed == 0
        assert stats.points_pushed == len(device_point_log)
        assert stats.segments_emitted == len(segments) > 0
        assert stats.max_lag >= 1
        assert sum(stats.shard_devices) == 100
        assert sum(stats.shard_points) == len(device_point_log)
        assert stats.as_dict()["devices"] == 100

    def test_finish_device_is_idempotent(self):
        hub = StreamHub(algorithm="operb", epsilon=40.0)
        for i in range(30):
            hub.push("cab-4", Point(float(i), 0.0, float(i)))
        first = hub.finish_device("cab-4")
        assert len(first) >= 1
        assert hub.finish_device("cab-4") == []
        assert hub.device("cab-4").finished


class ExplodingSimplifier:
    """Raises on the third push — a misbehaving device stream."""

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


@pytest.fixture
def exploding_algorithm():
    register_algorithm(
        "exploding",
        streaming_factory=ExplodingSimplifier,
        streaming_kwargs=(),
        summary="test-only failing stream",
    )(lambda trajectory, epsilon: None)
    yield "exploding"
    unregister_algorithm("exploding")


class TestHubErrorIsolation:
    def test_failing_device_is_quarantined_not_fatal(self, exploding_algorithm):
        hub = StreamHub(algorithm="operb", epsilon=40.0, on_error="collect")
        hub.register_device("bad", algorithm=exploding_algorithm)
        emitted = 0
        for i in range(50):
            point = Point(float(i * 10), 0.0, float(i))
            emitted += len(hub.push("good", point))
            hub.push("bad", point)
        assert len(hub.errors) == 1
        error = hub.errors[0]
        assert error.device_id == "bad"
        assert error.error_type == "RuntimeError"
        assert "firmware" in error.message
        bad = hub.device("bad")
        assert bad.failed
        # The failing push and everything after it count as dropped (the
        # points were consumed but produced nothing), so replay resumption
        # can rely on consumed == points_pushed + dropped_points.
        assert bad.dropped_points == 48
        assert bad.points_pushed + bad.dropped_points == 50
        # The healthy device was untouched.
        good = hub.device("good")
        assert not good.failed
        assert good.points_pushed == 50
        assert hub.stats().failed == 1
        assert hub.finish_device("good")

    def test_on_error_raise_propagates(self, exploding_algorithm):
        from repro import SimplificationError

        hub = StreamHub(algorithm=exploding_algorithm, epsilon=40.0, on_error="raise")
        hub.push("bad", Point(0.0, 0.0, 0.0))
        hub.push("bad", Point(1.0, 0.0, 1.0))
        with pytest.raises(RuntimeError, match="firmware"):
            hub.push("bad", Point(2.0, 0.0, 2.0))
        assert len(hub.errors) == 1
        # Subsequent pushes never re-enter the corrupted stream: they raise
        # the quarantine error and do not pile up duplicate DeviceErrors.
        with pytest.raises(SimplificationError, match="quarantined"):
            hub.push("bad", Point(3.0, 0.0, 3.0))
        assert len(hub.errors) == 1

    def test_failed_device_survives_checkpoint_roundtrip(self, exploding_algorithm):
        hub = StreamHub(algorithm="operb", epsilon=40.0, on_error="collect")
        hub.register_device("bad", algorithm=exploding_algorithm)
        for i in range(5):
            hub.push("bad", Point(float(i), 0.0, float(i)))
            hub.push("good", Point(float(i * 10), 0.0, float(i)))
        payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))
        restored = restore_hub(payload)
        assert restored.device("bad").failed
        assert len(restored.errors) == 1
        assert restored.device("bad").dropped_points == 3
        # Pushing to the restored failed device keeps dropping quietly.
        assert restored.push("bad", Point(9.0, 9.0, 9.0)) == []
        assert restored.device("bad").dropped_points == 4


class TestHubCheckpointRestore:
    def test_resumed_hub_is_byte_identical_with_100_devices(self, device_point_log):
        """The acceptance property: >= 100 devices, mid-stream crash/resume."""
        reference, _ = drive(device_point_log)
        for resume_at in (1, len(device_point_log) // 2, len(device_point_log) - 1):
            resumed_segments, resumed = drive(device_point_log, resume_at=resume_at)
            assert resumed_segments == reference
            assert len(resumed) == 100
            assert resumed.stats().finished == 100

    def test_mixed_algorithm_hub_checkpoint(self, device_point_log):
        def configure(hub: StreamHub) -> None:
            hub.register_device("dev-0000", algorithm="operb-a", epsilon=20.0)
            hub.register_device("dev-0001", algorithm="fbqs")
            hub.register_device("dev-0002", algorithm="dead-reckoning", epsilon=15.0)
            hub.register_device("dev-0003", algorithm="dp")  # buffered adapter

        sink_a = CollectingSink()
        reference_hub = StreamHub(algorithm="operb", epsilon=40.0, shared_sink=sink_a)
        configure(reference_hub)
        reference_hub.push_many(device_point_log)
        reference_hub.finish_all()

        cut = len(device_point_log) // 3
        sink_b = CollectingSink()
        crashing = StreamHub(algorithm="operb", epsilon=40.0, shared_sink=sink_b)
        configure(crashing)
        crashing.push_many(device_point_log[:cut])
        payload = json.loads(json.dumps(crashing.checkpoint(), allow_nan=False))
        sink_c = CollectingSink()
        resumed = restore_hub(payload, shared_sink=sink_c)
        resumed.push_many(device_point_log[cut:])
        resumed.finish_all()

        assert sink_b.segments + sink_c.segments == sink_a.segments
        assert resumed.device("dev-0003").session.buffering

    def test_checkpoint_restores_counters(self, device_point_log):
        cut = 4_321
        _, resumed = drive(device_point_log, resume_at=cut)
        assert resumed.points_pushed == len(device_point_log)
        stats = resumed.stats()
        assert stats.points_pushed == len(device_point_log)
        assert stats.segments_emitted == resumed.segments_emitted
        # Per-shard load survives the round trip too.
        assert sum(stats.shard_points) == len(device_point_log)
        assert all(points > 0 for points in stats.shard_points)

    def test_save_and_load_checkpoint_file(self, device_point_log, tmp_path):
        _, hub = drive(device_point_log[:2_000])
        path = save_checkpoint(hub, tmp_path / "hub.json")
        payload = load_checkpoint(path)
        assert payload["kind"] == "stream-hub"
        assert payload["format"] == 1
        restored = restore_hub(path)
        assert len(restored) == len(hub)

    def test_checkpoint_rejects_wrong_kind_and_format(self):
        with pytest.raises(CheckpointError, match="kind"):
            StreamHub.from_checkpoint({"format": 1, "kind": "other"})
        with pytest.raises(CheckpointError, match="format"):
            StreamHub.from_checkpoint({"format": 99, "kind": "stream-hub"})

    def test_malformed_payload_raises_checkpoint_error(self):
        with pytest.raises(CheckpointError, match="malformed"):
            StreamHub.from_checkpoint({"format": 1, "kind": "stream-hub", "hub": {}})

    def test_load_checkpoint_rejects_garbage_files(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"hello": 1}))
        with pytest.raises(CheckpointError, match="discriminators"):
            load_checkpoint(wrong)

    def test_unsnapshottable_live_stream_fails_checkpoint(self):
        class OpaqueSimplifier:
            def __init__(self, epsilon):
                self.epsilon = epsilon

            def push(self, point):
                return []

            def finish(self):
                return []

        register_algorithm(
            "opaque",
            streaming_factory=OpaqueSimplifier,
            streaming_kwargs=(),
            summary="test-only",
        )(lambda trajectory, epsilon: None)
        try:
            hub = StreamHub(algorithm="opaque", epsilon=10.0)
            hub.push("dev", Point(0.0, 0.0, 0.0))
            with pytest.raises(CheckpointError, match="opaque"):
                hub.checkpoint()
        finally:
            unregister_algorithm("opaque")


class TestReshardRestore:
    def test_restore_onto_a_different_shard_count(self, device_point_log):
        reference, _ = drive(device_point_log)

        cut = len(device_point_log) // 2
        sink_before = CollectingSink()
        hub = StreamHub(
            algorithm="operb", epsilon=40.0, shards=8, shared_sink=sink_before
        )
        hub.push_many(device_point_log[:cut])
        payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))

        segment_key = lambda s: (s.start.x, s.start.y, s.start.t, s.first_index)  # noqa: E731
        for new_shards in (1, 3, 13):
            sink_after = CollectingSink()
            resumed = restore_hub(payload, shared_sink=sink_after, shards=new_shards)
            assert resumed.n_shards == new_shards
            resumed.push_many(device_point_log[cut:])
            resumed.finish_all()
            # finish_all flushes in shard order, so the trailing segments of
            # a re-sharded hub arrive in a different device order; the
            # segment multiset is unchanged.
            assert sorted(
                sink_before.segments + sink_after.segments, key=segment_key
            ) == sorted(reference, key=segment_key)
            stats = resumed.stats()
            # Per-shard counters are recomputed from the per-device ones.
            assert len(stats.shard_points) == new_shards
            assert sum(stats.shard_points) == len(device_point_log)
            assert sum(stats.shard_devices) == 100
            for shard in resumed.shards:
                for device_id in shard.devices:
                    assert shard_index(device_id, new_shards) == shard.index

    def test_resharded_checkpoint_chain_stays_consistent(self, device_point_log):
        cut = len(device_point_log) // 3
        hub = StreamHub(algorithm="operb", epsilon=40.0, shards=4)
        hub.push_many(device_point_log[:cut])
        payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))
        resharded = restore_hub(payload, shards=7)
        # A checkpoint of the re-sharded hub restores again, and the device
        # set and counters survive both hops.
        second = json.loads(json.dumps(resharded.checkpoint(), allow_nan=False))
        assert second["hub"]["shards"] == 7
        final = restore_hub(second)
        assert len(final) == len(hub)
        assert final.points_pushed == cut
        assert {entry["device_id"] for entry in second["devices"]} == {
            entry["device_id"] for entry in payload["devices"]
        }


class TestHubBackends:
    """The hub on concurrent execution backends (threads / node workers)."""

    @pytest.fixture(params=["thread", "node"])
    def backend(self, request):
        return request.param

    def test_concurrent_hub_matches_serial(self, device_point_log, backend):
        reference, _ = drive(device_point_log)
        sink = CollectingSink()
        with StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=8,
            shared_sink=sink,
            backend=backend,
            workers=3,
        ) as hub:
            assert hub.backend == backend
            assert hub.n_workers == 3
            # Concurrent push routes asynchronously and returns [].
            device_id, point = device_point_log[0]
            assert hub.push(device_id, point) == []
            hub.push_many(device_point_log[1:])
            hub.finish_all()
            stats = hub.stats()
        assert stats.points_pushed == len(device_point_log)
        assert stats.finished == 100
        # The shared sink interleaves devices nondeterministically across
        # worker shards, but the segment multiset is byte-identical (the
        # per-device subsequences are locked in by test_exec_equivalence).
        assert len(sink.segments) == len(reference)
        assert sorted(
            sink.segments, key=lambda s: (s.start.x, s.start.y, s.start.t, s.first_index)
        ) == sorted(
            reference, key=lambda s: (s.start.x, s.start.y, s.start.t, s.first_index)
        )

    def test_quarantine_does_not_poison_siblings_or_checkpoint(
        self, exploding_algorithm, backend
    ):
        with StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=4,
            on_error="collect",
            backend=backend,
            workers=2,
        ) as hub:
            hub.register_device("bad", algorithm=exploding_algorithm)
            for i in range(50):
                point = Point(float(i * 10), 0.0, float(i))
                hub.push("good", point)
                hub.push("bad", point)
            # checkpoint() barriers the workers; a quarantined device must
            # neither deadlock it nor corrupt the payload.
            payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))
            stats = hub.stats()
        assert stats.failed == 1
        assert len(hub.errors) == 1
        error = hub.errors[0]
        assert error.device_id == "bad"
        assert error.error_type == "RuntimeError"
        assert "firmware" in error.message
        # Failures crossing a process boundary carry no exception object.
        assert (error.exception is None) == (backend == "node")
        bad_entry = next(e for e in payload["devices"] if e["device_id"] == "bad")
        assert bad_entry["failed"]["error_type"] == "RuntimeError"
        assert bad_entry["stats"]["dropped_points"] == 48
        good_entry = next(e for e in payload["devices"] if e["device_id"] == "good")
        assert good_entry["failed"] is None
        assert good_entry["stats"]["points_pushed"] == 50
        # The healthy device's stream restores and keeps going.
        resumed = restore_hub(payload)
        assert resumed.device("bad").failed
        assert not resumed.device("good").failed

    def test_raise_mode_surfaces_failures_at_the_next_call(
        self, exploding_algorithm, backend
    ):
        from repro import SimplificationError

        with StreamHub(
            algorithm=exploding_algorithm,
            epsilon=40.0,
            shards=2,
            on_error="raise",
            backend=backend,
            workers=2,
        ) as hub:
            for i in range(3):  # the third push explodes inside the worker
                hub.push("bad", Point(float(i), 0.0, float(i)))
            with pytest.raises((RuntimeError, SimplificationError), match="firmware"):
                for _ in range(20):  # surfaced at one of the next hub calls
                    hub.push("bad", Point(9.0, 9.0, 9.0))
                    hub.stats()
            assert len(hub.errors) == 1

    def test_error_isolation_between_devices_matches_serial(
        self, exploding_algorithm, backend, device_point_log
    ):
        def build(backend_name, workers=None):
            sink = CollectingSink()
            hub = StreamHub(
                algorithm="operb",
                epsilon=40.0,
                shards=4,
                shared_sink=sink,
                on_error="collect",
                backend=backend_name,
                workers=workers,
            )
            hub.register_device("bad", algorithm=exploding_algorithm)
            return hub, sink

        serial_hub, serial_sink = build("serial")
        concurrent_hub, concurrent_sink = build(backend, workers=2)
        records = [("bad", point) for _, point in device_point_log[:40]]
        traffic = device_point_log[:400] + records
        payloads = {}
        for name, hub in (("serial", serial_hub), (backend, concurrent_hub)):
            with hub:
                hub.push_many(traffic)
                hub.finish_all()
                payloads[name] = json.dumps(
                    hub.checkpoint(), allow_nan=False, sort_keys=True
                )
            assert len(hub.errors) == 1
        # Checkpoints are byte-identical across backends even with a
        # quarantined device in the mix.
        assert payloads[backend] == payloads["serial"]
        assert sorted(
            concurrent_sink.segments,
            key=lambda s: (s.start.x, s.start.y, s.start.t, s.first_index),
        ) == sorted(
            serial_sink.segments,
            key=lambda s: (s.start.x, s.start.y, s.start.t, s.first_index),
        )

    def test_node_backend_restricts_device_object_access(self, device_point_log):
        from repro import SimplificationError

        with StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=4,
            backend="node",
            workers=2,
        ) as hub:
            assert hub.register_device("dev-0000") is None
            hub.push_many(device_point_log[:200])
            with pytest.raises(SimplificationError, match="not addressable"):
                hub.device("dev-0000")
            with pytest.raises(SimplificationError, match="not addressable"):
                hub.shards
            # Unregistered devices still report the parameter error first.
            with pytest.raises(InvalidParameterError, match="not registered"):
                hub.device("ghost")
            stats = hub.stats()
            assert stats.points_pushed == 200

    def test_thread_backend_exposes_live_devices_after_barrier(self, device_point_log):
        with StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=4,
            backend="thread",
            workers=2,
        ) as hub:
            hub.push_many(device_point_log[:500])
            device = hub.device("dev-0000")
            assert device.points_pushed > 0
            assert sum(len(shard) for shard in hub.shards) == len(hub)

    def test_finish_all_makes_counters_authoritative(self, device_point_log, backend):
        with StreamHub(
            algorithm="operb", epsilon=40.0, shards=4, backend=backend, workers=2
        ) as hub:
            hub.push_many(device_point_log[:300])
            hub.finish_all()
            # No further synchronising call needed: finish_all() itself
            # refreshes the hub-level counters.
            assert hub.points_pushed == 300
            assert hub.segments_emitted > 0

    def test_bad_restore_arguments_are_not_blamed_on_the_checkpoint(
        self, device_point_log
    ):
        hub = StreamHub(algorithm="operb", epsilon=40.0, shards=4)
        hub.push_many(device_point_log[:100])
        payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))
        with pytest.raises(InvalidParameterError, match="unknown execution backend"):
            restore_hub(payload, backend="warp")
        with pytest.raises(InvalidParameterError, match="shards"):
            restore_hub(payload, shards=0)
        with pytest.raises(InvalidParameterError, match="workers"):
            restore_hub(payload, backend="thread", workers=0)

    def test_sink_factory_errors_are_not_blamed_on_the_checkpoint(
        self, device_point_log
    ):
        hub = StreamHub(algorithm="operb", epsilon=40.0, shards=4)
        hub.push_many(device_point_log[:200])
        payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))

        def broken_factory(device_id):
            raise KeyError(device_id)  # caller bug, not a payload problem

        with pytest.raises(KeyError):
            restore_hub(payload, sink_factory=broken_factory)

    def test_failed_restore_does_not_leak_workers(self, device_point_log, backend):
        import multiprocessing

        hub = StreamHub(algorithm="operb", epsilon=40.0, shards=4)
        hub.push_many(device_point_log[:500])
        payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))
        payload["devices"][3] = {"device_id": "broken"}  # malformed entry
        baseline_children = len(multiprocessing.active_children())
        with pytest.raises(CheckpointError, match="malformed"):
            restore_hub(payload, backend=backend, workers=2)
        # The partially-restored hub's workers were shut down, not leaked.
        assert len(multiprocessing.active_children()) <= baseline_children

    @pytest.mark.parametrize("close_backend", ["serial", "thread", "node"])
    def test_close_is_idempotent_and_final(self, close_backend):
        from repro.exceptions import ExecutionError

        hub = StreamHub(
            algorithm="operb", epsilon=40.0, shards=2, backend=close_backend, workers=2
        )
        hub.push("dev", Point(0.0, 0.0, 0.0))
        hub.close()
        hub.close()
        with pytest.raises(ExecutionError, match="closed"):
            hub.push("dev", Point(1.0, 0.0, 1.0))

    def test_push_many_honours_quarantine_in_raise_mode(
        self, exploding_algorithm, backend
    ):
        from repro import SimplificationError

        with StreamHub(
            algorithm=exploding_algorithm,
            epsilon=40.0,
            shards=2,
            on_error="raise",
            backend=backend,
            workers=2,
        ) as hub:
            points = [Point(float(i), 0.0, float(i)) for i in range(10)]
            with pytest.raises((RuntimeError, SimplificationError), match="firmware"):
                hub.push_many(("bad", point) for point in points)
            # The failure is known now; routing more traffic to the
            # quarantined device must raise exactly like push() and the
            # serial backend do — not silently drop the records.
            with pytest.raises(SimplificationError, match="quarantined"):
                hub.push_many(("bad", point) for point in points)

    def test_close_surfaces_a_pending_raise_mode_failure(
        self, exploding_algorithm, backend
    ):
        from repro import SimplificationError

        hub = StreamHub(
            algorithm=exploding_algorithm,
            epsilon=40.0,
            shards=2,
            on_error="raise",
            backend=backend,
            workers=2,
        )
        for i in range(3):  # third push fails inside the worker
            hub.push("bad", Point(float(i), 0.0, float(i)))
        # close() is the caller's last hub call; raise mode must not let
        # the failure vanish just because nothing else synchronised first.
        with pytest.raises((RuntimeError, SimplificationError), match="firmware"):
            hub.close()
        assert len(hub.errors) == 1

    def test_push_many_flushes_buffers_before_surfacing_a_failure(
        self, exploding_algorithm
    ):
        from repro import SimplificationError

        hub = StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=1,
            on_error="raise",
            backend="thread",
            workers=1,
        )
        hub.register_device("bad", algorithm=exploding_algorithm)
        point = lambda i: Point(float(i * 31 % 89), float(i * 17 % 53), float(i))  # noqa: E731
        # The failing record flushes at the 512 cap; later registrations
        # surface the failure while healthy records sit in the buffer —
        # those must be shipped, not stranded.
        batch = [("bad", point(i)) for i in range(3)]
        batch += [("H", point(i)) for i in range(509)]
        batch += [("N1", point(0))]
        batch += [("H", point(509 + i)) for i in range(50)]
        batch += [("N2", point(0))]
        consumed = 0

        def feed():
            nonlocal consumed
            for record in batch:
                consumed += 1
                yield record

        with pytest.raises((RuntimeError, SimplificationError), match="firmware"):
            hub.push_many(feed())
        stats = hub.stats()
        hub.close()
        # WHERE the failure surfaces depends on event-delivery timing, but
        # every consumed record must have been shipped (pushed or dropped)
        # except at most the record in hand when the raise fired and the
        # failing push itself — buffered records are never stranded.
        assert consumed - (stats.points_pushed + stats.dropped_points) <= 2

    def test_sink_failure_does_not_quarantine_the_device_stream(self):
        class OneShotBrokenSink:
            def __init__(self):
                self.accepted = 0

            def accept(self, segment):
                if self.accepted >= 1:
                    raise OSError("disk full")
                self.accepted += 1

        hub = StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=2,
            shared_sink=OneShotBrokenSink(),
            on_error="raise",
        )
        with pytest.raises(OSError, match="disk full"):
            for i in range(200):
                hub.push("dev", Point(float(i * 37 % 113), float(i * 59 % 97), float(i)))
        # The sink error was surfaced once; the device stream itself is
        # healthy — further pushes work, nothing reads as quarantined.
        hub.push("dev", Point(0.0, 0.0, 1_000.0))
        assert not hub.device("dev").failed
        assert hub.stats().failed == 0
        payload = hub.checkpoint()
        entry = next(e for e in payload["devices"] if e["device_id"] == "dev")
        assert entry["failed"] is None
        assert any("sink rejected" in error.message for error in hub.errors)

    @pytest.mark.parametrize("sink_backend", ["serial", "thread", "node"])
    def test_raising_sink_is_isolated_not_fatal(self, sink_backend, device_point_log):
        class BrokenSink:
            def __init__(self):
                self.accepted = 0

            def accept(self, segment):
                if self.accepted >= 2:
                    raise OSError("disk full")
                self.accepted += 1

        sink = BrokenSink()
        with StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=4,
            shared_sink=sink,
            backend=sink_backend,
            workers=2,
        ) as hub:
            # Must neither crash the ingest nor deadlock the synchronising
            # calls on any backend.
            hub.push_many(device_point_log[:600])
            hub.finish_all()
            stats = hub.stats()
            hub.checkpoint()
        assert stats.points_pushed == 600
        assert any("sink rejected segments" in error.message for error in hub.errors)


class TestFinishedDevicesAndDeviceIds:
    """Fixes for finished devices are drops, and ids are checked at the edge."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "node"])
    @pytest.mark.parametrize("restored", [False, True], ids=["live", "restored"])
    def test_fixes_after_finish_are_dropped_not_quarantined(self, backend, restored):
        def late(j):
            return Point(float(j), 1.0, float(100 + j))

        hub = StreamHub(
            algorithm="operb", epsilon=40.0, shards=4, backend=backend, workers=2
        )
        for j in range(20):
            hub.push_many([("cab-1", Point(float(j), 0.0, float(j))),
                           ("cab-2", Point(0.0, float(j), float(j)))])
        hub.finish_all()
        if restored:
            payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))
            hub.close()
            hub = restore_hub(payload, backend=backend, workers=2)
        with hub:
            hub.push("cab-1", late(0))
            hub.push_many([("cab-1", late(j)) for j in range(1, 4)])
            stats = hub.stats()
            entry = next(
                entry for entry in hub.checkpoint()["devices"]
                if entry["device_id"] == "cab-1"
            )
        assert hub.errors == []
        assert stats.failed == 0
        assert stats.finished == stats.devices == 2
        assert stats.dropped_points == 4
        assert stats.points_pushed == 40
        assert entry["finished"] is True
        assert entry["failed"] is None
        assert entry["stats"]["dropped_points"] == 4

    @pytest.mark.parametrize("backend", ["serial", "thread", "node"])
    def test_raise_mode_refuses_fixes_for_a_finished_device(self, backend):
        with StreamHub(
            algorithm="operb", epsilon=40.0, on_error="raise", backend=backend, workers=2
        ) as hub:
            for j in range(10):
                hub.push("cab-1", Point(float(j), 0.0, float(j)))
            hub.finish_device("cab-1")
            with pytest.raises(SimplificationError, match="'cab-1' is finished"):
                hub.push("cab-1", Point(99.0, 0.0, 99.0))
            with pytest.raises(SimplificationError, match="'cab-1' is finished"):
                hub.push_many([("cab-1", Point(99.0, 0.0, 99.0))])
            stats = hub.stats()
        assert hub.errors == []
        assert (stats.failed, stats.finished, stats.dropped_points) == (0, 1, 0)

    @pytest.mark.parametrize("backend", ["serial", "thread", "node"])
    def test_non_str_device_ids_are_rejected_before_any_state_changes(self, backend):
        point = Point(0.0, 0.0, 0.0)
        with StreamHub(epsilon=40.0, backend=backend, workers=2) as hub:
            for bad_id in (7, None, b"x"):
                with pytest.raises(InvalidParameterError, match="device ids must be str"):
                    hub.push(bad_id, point)
                with pytest.raises(InvalidParameterError, match="device ids must be str"):
                    hub.push_many([(bad_id, point)])
                with pytest.raises(InvalidParameterError, match="device ids must be str"):
                    hub.register_device(bad_id)
            assert len(hub) == 0
            assert hub.stats().devices == 0
            # The records before the bad one are ingested, as serially.
            with pytest.raises(InvalidParameterError):
                hub.push_many([("cab-1", point), (7, Point(1.0, 0.0, 1.0))])
            stats = hub.stats()
        assert (stats.devices, stats.points_pushed) == (1, 1)


class TestPointLog:
    def test_round_trip(self, device_point_log, tmp_path):
        path = tmp_path / "log.jsonl"
        written = write_point_log(device_point_log, path)
        assert written == len(device_point_log)
        loaded = list(read_point_log(path))
        assert loaded == device_point_log

    def test_malformed_line_is_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"device": "a", "x": 1.0, "y": 2.0, "t": 0.0}\n{"x": 1.0}\n')
        with pytest.raises(CheckpointError, match="line 2"):
            list(read_point_log(path))

    def test_blank_lines_skipped_and_t_defaults(self, tmp_path):
        path = tmp_path / "sparse.jsonl"
        path.write_text('\n{"device": "a", "x": 1.0, "y": 2.0}\n\n')
        records = list(read_point_log(path))
        assert records == [("a", Point(1.0, 2.0, 0.0))]

    def test_non_finite_coordinates_rejected_without_truncated_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_point_log([("a", Point(0.0, 0.0, 0.0))], path)
        bad = [("a", Point(1.0, 1.0, 1.0)), ("b", Point(float("nan"), 0.0, 0.0))]
        with pytest.raises(CheckpointError, match="not .*serialisable"):
            write_point_log(bad, path)
        # The previous log survives intact; no .tmp residue either.
        assert list(read_point_log(path)) == [("a", Point(0.0, 0.0, 0.0))]
        assert list(tmp_path.iterdir()) == [path]


class RecordingSink:
    """Accepts everything; records flush/close calls for lifecycle tests."""

    def __init__(self):
        self.segments = []
        self.flushes = 0
        self.closes = 0

    def accept(self, segment):
        self.segments.append(segment)

    def flush(self):
        self.flushes += 1

    def close(self):
        self.closes += 1


class TestSinkProtocolAndLifecycle:
    def test_any_accept_object_satisfies_the_protocol(self):
        from repro.streaming import SegmentSink

        assert isinstance(CollectingSink(), SegmentSink)
        assert isinstance(RecordingSink(), SegmentSink)
        assert not isinstance(object(), SegmentSink)

    def test_shared_sink_must_satisfy_the_protocol(self):
        with pytest.raises(InvalidParameterError, match="SegmentSink"):
            StreamHub(algorithm="operb", epsilon=40.0, shared_sink=object())

    def test_factory_result_must_satisfy_the_protocol(self):
        hub = StreamHub(
            algorithm="operb", epsilon=40.0, sink_factory=lambda device_id: object()
        )
        with pytest.raises(InvalidParameterError, match="cab-1"):
            hub.push("cab-1", Point(0.0, 0.0, 0.0))

    def test_flush_and_close_helpers_tolerate_accept_only_sinks(self):
        from repro.streaming import close_sink, flush_sink

        bare = CollectingSink()
        flush_sink(bare)  # no flush() method: a documented no-op
        close_sink(bare)
        recorder = RecordingSink()
        flush_sink(recorder)
        close_sink(recorder)
        assert recorder.flushes == 1 and recorder.closes == 1

    def test_close_flushes_and_closes_every_device_sink_once(self, device_point_log):
        sinks: dict[str, RecordingSink] = {}

        def factory(device_id: str) -> RecordingSink:
            sinks[device_id] = RecordingSink()
            return sinks[device_id]

        hub = StreamHub(algorithm="operb", epsilon=40.0, sink_factory=factory)
        hub.push_many(device_point_log[:500])
        hub.finish_all()
        hub.close()
        hub.close()  # idempotent: nothing closes twice
        assert sinks and all(s.flushes == 1 and s.closes == 1 for s in sinks.values())

    def test_shared_sink_is_closed_exactly_once(self, device_point_log):
        sink = RecordingSink()
        with StreamHub(algorithm="operb", epsilon=40.0, shared_sink=sink) as hub:
            hub.push_many(device_point_log[:500])
            hub.finish_all()
        # Many devices route to the one shared sink; __exit__ still
        # flushes/closes that single object exactly once.
        assert len(hub) > 1
        assert sink.flushes == 1 and sink.closes == 1

    def test_raising_sink_is_counted_in_sink_failures(self):
        class BrokenSink(RecordingSink):
            def accept(self, segment):
                raise OSError("disk full")

        hub = StreamHub(algorithm="operb", epsilon=40.0, shared_sink=BrokenSink())
        for i in range(200):
            hub.push("dev", Point(float(i * 37 % 113), float(i * 59 % 97), float(i)))
        hub.finish_all()
        stats = hub.stats()
        assert stats.sink_failures == 1  # detached after the first raise
        assert stats.failed == 0  # the device stream itself is healthy
        assert stats.as_dict()["sink_failures"] == 1

    def test_sink_close_failure_is_recorded_not_raised(self):
        class UncloseableSink(RecordingSink):
            def close(self):
                raise OSError("already gone")

        hub = StreamHub(algorithm="operb", epsilon=40.0, shared_sink=UncloseableSink())
        hub.push("dev", Point(0.0, 0.0, 0.0))
        hub.finish_all()
        assert hub.stats().sink_failures == 0
        hub.close()
        # stats() needs the live actor group; after close the counter
        # attribute itself is the authoritative record.
        assert hub.sink_failures == 1
        assert any("sink close failed" in error.message for error in hub.errors)
