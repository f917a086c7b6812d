"""Node backend specifics: the socket RPC, liveness, and failover.

The generic backend contract (map_isolated ordering, actor mailbox
semantics, crash surfacing) is exercised for every backend in
``test_exec_backends.py`` and the byte-identity matrix in
``test_exec_equivalence.py``.  This module covers what only the socket
transport has (the node backend's, on which the process backend's actors
run too): the packet protocol and handshake validation, TCP_NODELAY, the
zero-pickle ``push_frame`` hot path, heartbeat-based dead-worker
detection, and the checkpoint-failover chaos drill the distributed story
hinges on.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import statistics
import threading
import time

import pytest

from repro import Point
from repro.exceptions import ExecutionError, WireFormatError
from repro.exec import NodeBackend, ProcessBackend
from repro.exec.actors import ActorGroup
from repro.exec.node import (
    _NO_TOKEN,
    _OP_ASK,
    _OP_HELLO,
    _OP_TELL,
    NODE_PROTOCOL_VERSION,
    NodeActorGroup,
    _decode_error,
    _decode_event,
    _encode_error,
    _encode_event,
    _is_segment_event,
    _pack_packet,
    _recv_packet,
)
from repro.perf.workloads import build_device_log
from repro.streaming import CollectingSink, StreamHub, restore_hub
from repro.streaming.wire import decode_frame, encode_frame, group_records
from repro.trajectory.piecewise import SegmentRecord

FAST_LIVENESS = dict(heartbeat_interval=0.05, heartbeat_timeout=0.6)


class _Recorder:
    """Actor handler that records every message for later inspection."""

    def __init__(self, emit) -> None:
        self._emit = emit
        self.messages: list[object] = []

    def handle(self, message: object):
        if message == ("drain",):
            drained, self.messages = self.messages, []
            return drained
        if message == ("emit",):
            self._emit(("custom", {"n": 1}))
            return None
        self.messages.append(message)
        return None


def _make_recorder(emit):
    return _Recorder(emit)


def _segment(t0: float = 0.0, t1: float = 5.0) -> SegmentRecord:
    return SegmentRecord(
        start=Point(0.0, 0.0, t0),
        end=Point(10.0, 0.0, t1),
        first_index=0,
        last_index=4,
        point_count=5,
        covered_last_index=4,
        patched_end=True,
    )


class TestPacketPlumbing:
    def test_packets_round_trip_over_a_socket(self):
        left, right = socket.socketpair()
        try:
            left.sendall(_pack_packet(_OP_TELL, 42, b"payload"))
            left.sendall(_pack_packet(_OP_ASK, _NO_TOKEN, b""))
            assert _recv_packet(right) == (_OP_TELL, 42, b"payload")
            assert _recv_packet(right) == (_OP_ASK, _NO_TOKEN, b"")
            left.close()
            assert _recv_packet(right) is None  # clean EOF
        finally:
            with contextlib.suppress(OSError):
                left.close()
            right.close()

    def test_undersized_packet_is_a_wire_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x01\x00\x00\x00Z")  # length 1 < op+token header
            with pytest.raises(WireFormatError, match="packet too short"):
                _recv_packet(right)
        finally:
            left.close()
            right.close()

    def test_error_payloads_round_trip(self):
        body = _encode_error("ValueError", "bad input")
        assert _decode_error(body) == ("ValueError", "bad input")

    def test_malformed_error_payload_is_rejected(self):
        with pytest.raises(WireFormatError, match="malformed node error"):
            _decode_error(encode_frame("json", {"not": "a pair"}))


class TestEventCodec:
    def test_segment_events_travel_columnar_not_pickled(self):
        event = ("segments", "device-7", [_segment(), _segment(5.0, 9.0)])
        body = _encode_event(event)
        assert decode_frame(body)[0] == "segment-batch"
        assert _decode_event(body) == event

    def test_level_segment_events_keep_their_level(self):
        event = ("level_segments", "device-7", 3, [_segment()])
        body = _encode_event(event)
        assert decode_frame(body)[0] == "segment-batch"
        assert _decode_event(body) == event

    def test_other_events_fall_back_to_the_blob_frame(self):
        event = ("custom", {"anything": [1, 2.5]})
        body = _encode_event(event)
        assert decode_frame(body)[0] == "blob"
        assert _decode_event(body) == event

    def test_segment_event_shape_is_checked_strictly(self):
        assert _is_segment_event(("segments", "d", [_segment()]))
        assert _is_segment_event(("level_segments", "d", 2, []))
        assert not _is_segment_event(("segments", "d", [_segment()], 1))  # arity
        assert not _is_segment_event(("level_segments", "d", True, []))  # bool level
        assert not _is_segment_event(("segments", "d", ["not a record"]))
        assert not _is_segment_event(("segments", 7, [_segment()]))
        assert not _is_segment_event("segments")


class TestHandshake:
    @staticmethod
    def _group_shell(n_actors: int = 2) -> NodeActorGroup:
        """A bare group for exercising ``_validate_hello`` in isolation."""
        shell = object.__new__(NodeActorGroup)
        ActorGroup.__init__(shell, n_actors)
        return shell

    def _hello(self, payload: object) -> bytes:
        return _pack_packet(_OP_HELLO, _NO_TOKEN, encode_frame("json", payload))

    def _validate(self, raw: bytes, *, taken: dict | None = None):
        shell = self._group_shell()
        left, right = socket.socketpair()
        try:
            left.sendall(raw)
            right.settimeout(5.0)
            return shell._validate_hello(right, "s3cret", taken or {})
        finally:
            with contextlib.suppress(OSError):
                left.close()
            with contextlib.suppress(OSError):
                right.close()

    def _valid_payload(self, **overrides):
        payload = {"index": 1, "secret": "s3cret", "version": NODE_PROTOCOL_VERSION}
        payload.update(overrides)
        return payload

    def test_valid_hello_yields_the_worker_index(self):
        assert self._validate(self._hello(self._valid_payload())) == 1

    def test_bad_secret_is_rejected(self):
        with pytest.raises(ExecutionError, match="session token"):
            self._validate(self._hello(self._valid_payload(secret="wrong")))

    def test_version_mismatch_is_rejected(self):
        with pytest.raises(ExecutionError, match="protocol version"):
            self._validate(self._hello(self._valid_payload(version=99)))

    def test_bad_index_is_rejected(self):
        with pytest.raises(ExecutionError, match="bad worker index"):
            self._validate(self._hello(self._valid_payload(index=5)))

    def test_duplicate_index_is_rejected(self):
        with pytest.raises(ExecutionError, match="duplicate worker index"):
            self._validate(
                self._hello(self._valid_payload()), taken={1: object()}
            )

    def test_non_hello_packet_is_rejected(self):
        with pytest.raises(ExecutionError, match="no HELLO packet"):
            self._validate(_pack_packet(_OP_TELL, _NO_TOKEN, b""))


class TestNodeActorGroup:
    def test_push_frame_tells_ship_the_raw_frame_bytes(self):
        frame = encode_frame(
            "point-batch",
            group_records(
                [
                    (0, "a", Point(0.0, 0.0, 0.0)),
                    (0, "a", Point(1.0, 1.0, 1.0)),
                    (1, "b", Point(2.0, 2.0, 2.0)),
                ]
            ),
        )
        group = NodeBackend(1).start_actors([_make_recorder])
        try:
            group.tell(0, ("push_frame", frame))
            group.tell(0, ("other", "message"))
            assert group.ask(0, ("drain",)) == [
                ("push_frame", frame),
                ("other", "message"),
            ]
        finally:
            group.close()

    def test_worker_pids_name_live_processes(self):
        group = NodeBackend(2).start_actors([_make_recorder] * 2)
        try:
            pids = group.worker_pids()
            assert len(pids) == 2
            for pid in pids:
                assert pid is not None and pid != os.getpid()
                os.kill(pid, 0)  # raises if the process is gone
        finally:
            group.close()

    def test_events_cross_the_socket(self):
        events: list[tuple[int, object]] = []
        group = NodeBackend(1, **FAST_LIVENESS).start_actors(
            [_make_recorder], on_event=lambda actor, event: events.append((actor, event))
        )
        try:
            group.tell(0, ("emit",))
            group.barrier()
            assert events == [(0, ("custom", {"n": 1}))]
        finally:
            group.close()

    @pytest.mark.parametrize(
        "backend", [NodeBackend(1), ProcessBackend(1)], ids=["node", "process"]
    )
    def test_ask_after_an_emitting_tell_does_not_stall(self, backend):
        # The hub's push-then-checkpoint pattern: the worker writes an
        # event and then the reply.  Without TCP_NODELAY, Nagle's algorithm
        # holds the reply behind the unacknowledged event until the
        # parent's delayed ACK fires (about 40 ms on Linux).
        events: list[object] = []
        group = backend.start_actors(
            [_make_recorder], on_event=lambda actor, event: events.append(event)
        )
        try:
            assert isinstance(group, NodeActorGroup)
            for sock in group._sockets:
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            group.ask(0, ("drain",))
            trips = []
            for _ in range(10):
                started = time.perf_counter()
                group.tell(0, ("emit",))
                group.ask(0, ("emit",))
                trips.append(time.perf_counter() - started)
            assert len(events) == 20
            assert statistics.median(trips) < 0.020, trips
        finally:
            group.close()

    def test_killed_worker_fails_over_instead_of_hanging(self):
        group = NodeBackend(2, **FAST_LIVENESS).start_actors([_make_recorder] * 2)
        try:
            os.kill(group.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(ExecutionError, match="died|unreachable"):
                for _ in range(50):  # the reader notices within a few tries
                    group.ask(0, ("drain",))
                    time.sleep(0.05)
            with pytest.raises(ExecutionError, match="node worker died"):
                group.barrier()
            # The surviving worker keeps serving and the next barrier is clean.
            assert group.ask(1, ("drain",)) == []
            group.barrier()
        finally:
            with contextlib.suppress(ExecutionError):
                group.close()

    def test_silent_worker_is_declared_dead_by_heartbeat_timeout(self):
        group = NodeBackend(1, **FAST_LIVENESS).start_actors([_make_recorder])
        pid = group.worker_pids()[0]
        try:
            os.kill(pid, signal.SIGSTOP)  # alive but silent: no heartbeats
            deadline = time.monotonic() + 10.0
            while not group._dead and time.monotonic() < deadline:
                time.sleep(0.05)
            assert group._dead == {0}
            with pytest.raises(ExecutionError, match="no heartbeat"):
                group.barrier()
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGCONT)
            with contextlib.suppress(ExecutionError):
                group.close()

    def test_pending_asks_fail_when_the_worker_dies_mid_round_trip(self):
        group = NodeBackend(1, **FAST_LIVENESS).start_actors([_make_recorder])
        pid = group.worker_pids()[0]
        failures: list[BaseException] = []

        def ask_forever() -> None:
            try:
                while True:
                    group.ask(0, ("drain",))
            except ExecutionError as error:
                failures.append(error)

        asker = threading.Thread(target=ask_forever)
        try:
            asker.start()
            time.sleep(0.1)
            os.kill(pid, signal.SIGKILL)
            asker.join(timeout=10.0)
            assert not asker.is_alive(), "ask hung on a dead worker"
            assert failures and "actor 0" in str(failures[0])
        finally:
            with contextlib.suppress(ExecutionError):
                group.close()


class TestHubTransportCounters:
    def test_node_hub_counts_batches_bytes_and_frames(self):
        records = build_device_log("taxi", 4, 60, seed=11)
        sink = CollectingSink()
        with StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=4,
            shared_sink=sink,
            backend="node",
            workers=2,
        ) as hub:
            hub.push_many(records)
            hub.finish_all()
            stats = hub.stats()
        assert stats.batches_shipped > 0
        assert stats.bytes_shipped > 0
        assert stats.frames_decoded > 0
        assert stats.frames_decoded == stats.batches_shipped
        payload = stats.as_dict()
        assert payload["batches_shipped"] == stats.batches_shipped
        assert payload["bytes_shipped"] == stats.bytes_shipped
        assert payload["frames_decoded"] == stats.frames_decoded

    def test_serial_hub_reports_zero_transport(self):
        records = build_device_log("taxi", 2, 30, seed=3)
        with StreamHub(
            algorithm="operb", epsilon=40.0, shards=2, shared_sink=CollectingSink()
        ) as hub:
            hub.push_many(records)
            hub.finish_all()
            stats = hub.stats()
        assert (stats.batches_shipped, stats.bytes_shipped, stats.frames_decoded) == (
            0,
            0,
            0,
        )


class TestFailoverChaosDrill:
    def test_killed_worker_recovers_from_checkpoint_onto_fewer_workers(self):
        """Kill a node worker mid-stream; restore the last shipped checkpoint
        onto a smaller group; the union of durable + replayed segments is
        byte-identical to an uninterrupted serial run."""
        records = build_device_log("taxi", 6, 40, seed=29)
        cut = len(records) // 2

        # Uninterrupted serial reference.
        reference_sink = CollectingSink()
        with StreamHub(
            algorithm="operb", epsilon=40.0, shards=8, shared_sink=reference_sink
        ) as reference:
            reference.push_many(records)
            reference.finish_all()

        # Interrupted node run: checkpoint at the cut, then lose a worker.
        first_sink = CollectingSink()
        hub = StreamHub(
            algorithm="operb",
            epsilon=40.0,
            shards=8,
            shared_sink=first_sink,
            backend="node",
            workers=3,
        )
        try:
            hub.push_many(records[:cut])
            payload = json.loads(json.dumps(hub.checkpoint(), allow_nan=False))
            durable = len(first_sink.segments)  # everything the checkpoint covers

            os.kill(hub._group.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(ExecutionError):
                hub.push_many(records[cut:])
                hub.finish_all()
        finally:
            with contextlib.suppress(ExecutionError):
                hub.close()

        # Failover: restore the shipped checkpoint onto two workers and
        # replay everything after the cut.
        second_sink = CollectingSink()
        with restore_hub(
            payload,
            shared_sink=second_sink,
            backend="node",
            workers=2,
        ) as resumed:
            resumed.push_many(records[cut:])
            resumed.finish_all()
            stats = resumed.stats()
        assert stats.frames_decoded > 0  # the replay really used the wire

        key = lambda segment: (  # noqa: E731 — local sort key
            segment.start.x,
            segment.start.y,
            segment.start.t,
            segment.first_index,
            segment.last_index,
        )
        recovered = first_sink.segments[:durable] + second_sink.segments
        assert sorted(recovered, key=key) == sorted(reference_sink.segments, key=key)
