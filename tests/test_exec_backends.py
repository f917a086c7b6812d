"""Tests for the execution runtime (:mod:`repro.exec`): backends and actors."""

from __future__ import annotations

import pickle
from functools import partial

import pytest

from repro.exceptions import ExecutionError, InvalidParameterError
from repro.exec import (
    BACKEND_NAMES,
    NodeBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)

ALL_BACKENDS = [SerialBackend(), ThreadBackend(3), ProcessBackend(3), NodeBackend(3)]
BACKEND_IDS = [backend.name for backend in ALL_BACKENDS]


def _square_or_fail(x: int) -> int:
    """Module-level task body (picklable for the process backend)."""
    if x == 3:
        raise ValueError(f"bad task {x}")
    return x * x


class _Accumulator:
    """Module-level actor handler (picklable factory for processes)."""

    def __init__(self, emit, base: int) -> None:
        self._emit = emit
        self.total = base

    def handle(self, message: tuple):
        kind = message[0]
        if kind == "add":
            self.total += message[1]
            self._emit(("added", message[1]))
            return None
        if kind == "get":
            return self.total
        if kind == "unpicklable":
            return lambda: None  # cannot cross a process boundary
        if kind == "invalid-parameter":
            raise InvalidParameterError("revive me by name")
        raise RuntimeError("kaput")


def _make_accumulator(base: int, emit):
    return _Accumulator(emit, base)


def _make_broken_handler(base: int, emit):
    raise RuntimeError("factory exploded")


class TestResolveBackend:
    def test_names_resolve_to_matching_backends(self):
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("thread", workers=5).workers == 5
        assert resolve_backend("process", workers=2).name == "process"
        node = resolve_backend("node", workers=3)
        assert node.name == "node"
        assert node.workers == 3
        assert isinstance(node, NodeBackend)
        assert "node" in BACKEND_NAMES

    def test_auto_picks_serial_for_one_worker_else_process(self):
        assert resolve_backend("auto").name == "serial"
        assert resolve_backend("auto", workers=1).name == "serial"
        assert resolve_backend("auto", workers=4).name == "process"
        assert resolve_backend("auto", workers=4).workers == 4

    def test_backend_instances_pass_through(self):
        backend = ThreadBackend(2)
        assert resolve_backend(backend) is backend

    def test_concurrent_backends_default_workers_to_cpu_count(self):
        import os

        assert resolve_backend("thread").workers == (os.cpu_count() or 2)

    def test_unknown_names_and_types_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown execution backend"):
            resolve_backend("quantum")
        with pytest.raises(InvalidParameterError, match="backend must be"):
            resolve_backend(42)
        assert "auto" in BACKEND_NAMES

    def test_worker_counts_validated(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            resolve_backend("thread", workers=0)
        with pytest.raises(InvalidParameterError, match="workers"):
            ThreadBackend(0)
        with pytest.raises(InvalidParameterError, match="exactly 1"):
            SerialBackend(4)

    def test_serial_ignores_the_workers_hint(self):
        # Generic backend sweeps pass the same workers= everywhere; the
        # serial backend always runs one worker.
        assert resolve_backend("serial", workers=4).workers == 1

    def test_node_backend_validates_its_timings(self):
        with pytest.raises(InvalidParameterError, match="heartbeat_interval"):
            NodeBackend(1, heartbeat_interval=0.0)
        with pytest.raises(InvalidParameterError, match="heartbeat_timeout"):
            NodeBackend(1, heartbeat_interval=1.0, heartbeat_timeout=0.5)
        with pytest.raises(InvalidParameterError, match="connect_timeout"):
            NodeBackend(1, connect_timeout=-1.0)

    def test_node_exports_resolve_lazily(self):
        # repro.exec exposes the node classes via PEP 562 without importing
        # the module (and the wire codec behind it) at package-import time.
        import repro.exec

        assert "NodeBackend" in dir(repro.exec)
        assert repro.exec.NodeBackend is NodeBackend
        with pytest.raises(AttributeError, match="has no attribute"):
            repro.exec.NoSuchBackend


class TestMapIsolated:
    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_results_ordered_and_isolated(self, backend):
        outcomes = backend.map_isolated(_square_or_fail, list(range(6)))
        assert [outcome.index for outcome in outcomes] == list(range(6))
        assert [outcome.value for outcome in outcomes] == [0, 1, 4, None, 16, 25]
        failed = outcomes[3]
        assert not failed.ok
        assert failed.failure.error_type == "ValueError"
        assert "bad task 3" in failed.failure.message
        assert all(outcome.ok for i, outcome in enumerate(outcomes) if i != 3)

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_empty_task_list(self, backend):
        assert backend.map_isolated(_square_or_fail, []) == []

    def test_in_process_backends_keep_the_exception_object(self):
        for backend in (SerialBackend(), ThreadBackend(2)):
            outcome = backend.map_isolated(_square_or_fail, [3])[0]
            assert isinstance(outcome.failure.exception, ValueError)

    def test_process_backend_strips_the_exception_object(self):
        outcome = ProcessBackend(2).map_isolated(_square_or_fail, [3])[0]
        assert outcome.failure.exception is None
        assert outcome.failure.error_type == "ValueError"

    def test_effective_workers_clamped_to_task_count(self):
        assert ThreadBackend(8).effective_workers(3) == 3
        assert ProcessBackend(2).effective_workers(100) == 2
        assert SerialBackend().effective_workers(100) == 1


class TestActorGroups:
    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_tell_ask_barrier_and_events(self, backend):
        events: list[tuple[int, object]] = []
        group = backend.start_actors(
            [partial(_make_accumulator, 10), partial(_make_accumulator, 20)],
            on_event=lambda actor, event: events.append((actor, event)),
        )
        try:
            for actor in range(2):
                group.tell(actor, ("add", 5))
                group.tell(actor, ("add", 1))
            group.barrier()
            assert sorted(events) == [
                (0, ("added", 1)),
                (0, ("added", 5)),
                (1, ("added", 1)),
                (1, ("added", 5)),
            ]
            assert group.ask(0, ("get",)) == 16
            assert group.ask(1, ("get",)) == 26
        finally:
            group.close()

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_events_emitted_before_an_ask_are_delivered_first(self, backend):
        events: list[object] = []
        group = backend.start_actors(
            [partial(_make_accumulator, 0)],
            on_event=lambda actor, event: events.append(event),
        )
        try:
            group.tell(0, ("add", 7))
            total = group.ask(0, ("get",))
            assert total == 7
            assert events == [("added", 7)]  # FIFO: event precedes the reply
        finally:
            group.close()

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_ask_propagates_handler_exceptions(self, backend):
        group = backend.start_actors([partial(_make_accumulator, 0)])
        try:
            with pytest.raises(RuntimeError, match="kaput"):
                group.ask(0, ("boom",))
            # The actor survives and keeps serving.
            assert group.ask(0, ("get",)) == 0
        finally:
            group.close()

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_tell_crashes_surface_at_the_next_barrier(self, backend):
        group = backend.start_actors([partial(_make_accumulator, 0)])
        try:
            group.tell(0, ("boom",))
            with pytest.raises(ExecutionError, match="kaput"):
                group.barrier()
            # Crashes are drained once surfaced; the group stays usable.
            group.barrier()
            assert group.ask(0, ("get",)) == 0
        finally:
            group.close()

    def test_process_backend_revives_repro_exceptions_by_name(self):
        group = ProcessBackend(1).start_actors([partial(_make_accumulator, 0)])
        try:
            with pytest.raises(InvalidParameterError, match="revive me"):
                group.ask(0, ("invalid-parameter",))
        finally:
            group.close()

    def test_local_handlers_visibility(self):
        serial = SerialBackend().start_actors([partial(_make_accumulator, 1)])
        assert serial.local_handlers[0].total == 1
        serial.close()

        thread = ThreadBackend(1).start_actors([partial(_make_accumulator, 2)])
        try:
            thread.tell(0, ("add", 3))
            thread.barrier()
            assert thread.local_handlers[0].total == 5
        finally:
            thread.close()

        process = ProcessBackend(1).start_actors([partial(_make_accumulator, 3)])
        try:
            assert process.local_handlers is None
        finally:
            process.close()

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_closed_groups_reject_messages(self, backend):
        group = backend.start_actors([partial(_make_accumulator, 0)])
        group.close()
        group.close()  # idempotent
        with pytest.raises(ExecutionError, match="closed"):
            group.tell(0, ("add", 1))

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=BACKEND_IDS)
    def test_actor_index_bounds_checked(self, backend):
        group = backend.start_actors([partial(_make_accumulator, 0)])
        try:
            with pytest.raises(ExecutionError, match="out of range"):
                group.tell(5, ("add", 1))
        finally:
            group.close()

    @pytest.mark.parametrize(
        "backend",
        [ThreadBackend(1), ProcessBackend(1), NodeBackend(1)],
        ids=["thread", "process", "node"],
    )
    def test_factory_failure_surfaces_without_deadlocking(self, backend):
        group = backend.start_actors([partial(_make_broken_handler, 1)])
        try:
            with pytest.raises(ExecutionError):
                group.tell(0, ("add", 1))
                group.barrier()
                group.ask(0, ("get",))  # whichever call sees it first
        finally:
            try:
                group.close()
            except ExecutionError:
                pass

    def test_dead_worker_process_fails_asks_instead_of_hanging(self):
        group = ProcessBackend(1).start_actors([partial(_make_accumulator, 0)])
        try:
            group._processes[0].terminate()
            group._processes[0].join(timeout=10.0)
            with pytest.raises(ExecutionError, match="died|unreachable"):
                group.ask(0, ("get",))
                group.ask(0, ("get",))  # second try hits the dead-actor guard
        finally:
            try:
                group.close()
            except ExecutionError:
                pass

    def test_process_close_drains_buffered_events(self):
        # close() without a prior barrier must still deliver every event the
        # workers emitted — segments buffered in the sockets are data.
        events: list[object] = []
        group = ProcessBackend(4).start_actors(
            [partial(_make_accumulator, 0)] * 4,
            on_event=lambda actor, event: events.append(event),
        )
        for actor in range(4):
            for _ in range(300):
                group.tell(actor, ("add", 1))
        group.close()
        assert len(events) == 1200

    def test_unpicklable_ask_message_does_not_leak_pending_slots(self):
        group = ProcessBackend(1).start_actors([partial(_make_accumulator, 0)])
        try:
            # Local functions fail to pickle with AttributeError; other
            # unpicklables raise PicklingError or TypeError.
            with pytest.raises((pickle.PicklingError, TypeError, AttributeError)):
                group.ask(0, ("echo", lambda: None))
            assert group._pending == {}
            assert group.ask(0, ("get",)) == 0  # the group keeps working
        finally:
            group.close()

    def test_unpicklable_reply_is_reported_not_fatal(self):
        group = ProcessBackend(1).start_actors([partial(_make_accumulator, 0)])
        try:
            with pytest.raises(ExecutionError, match="not sendable"):
                group.ask(0, ("unpicklable",))
            assert group.ask(0, ("get",)) == 0  # the actor keeps serving
        finally:
            group.close()
