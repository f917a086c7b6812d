"""Long-lived stateful workers ("actors") behind a uniform mailbox protocol.

The streaming hub needs something a task pool cannot give it: workers that
*own mutable state* (a shard's device streams) for the lifetime of the hub,
process messages strictly in order, and stream events (finalised segments,
device failures) back to the parent as they happen.  An
:class:`ActorGroup` provides exactly that.  The in-process groups live
here:

``SerialActorGroup``
    Handlers live in the caller; ``tell``/``ask`` dispatch inline and
    handler exceptions propagate directly.  The reference semantics.
``ThreadActorGroup``
    One worker thread + FIFO queue per actor.  Handlers still share the
    caller's memory (``local_handlers``), but only their own thread touches
    them between barriers — single-owner state, no locks in handler code.

Actors in other processes (the ``node`` backend) run on
:class:`~repro.exec.node.NodeActorGroup`, one socket-connected worker
process per actor.  Messages, replies and events must be picklable there;
exceptions are reduced to ``(type name, message)`` and revived by name on
the parent side (:func:`_revive_exception`).

The handler contract is deliberately tiny: ``factory(emit) -> handler``
builds the handler inside its worker, ``handler.handle(message) -> reply``
processes one message, and ``emit(event)`` (usable mid-``handle``) routes an
event to the group's ``on_event(actor_index, event)`` callback.  ``on_event``
is always invoked under a group-wide lock, so callbacks never run
concurrently with each other.

Delivery guarantees: messages to one actor are processed FIFO; events an
actor emitted before replying to an ``ask`` (or acknowledging a
``barrier``) are delivered to ``on_event`` before that call returns.
Handler exceptions during a ``tell`` are recorded as crashes and re-raised
as :class:`~repro.exceptions.ExecutionError` at the next
``ask``/``barrier``/``close`` — a crashed handler never deadlocks the
group.
"""

from __future__ import annotations

import builtins
import itertools
import threading
from dataclasses import dataclass
from types import TracebackType
from typing import Callable, Sequence

from .. import exceptions as _exceptions
from ..exceptions import ExecutionError

__all__ = [
    "ActorCrash",
    "ActorGroup",
    "SerialActorGroup",
    "ThreadActorGroup",
]

_BARRIER = "__barrier__"
_STOP = "__stop__"

_MAILBOX_CAPACITY = 128
"""Bound on a thread actor's queued messages.  A full mailbox blocks the
producer (``tell`` waits), so a fast producer cannot balloon hub memory to
O(points) — the backpressure the socket groups get from their send buffers.
"""


@dataclass(frozen=True, slots=True)
class ActorCrash:
    """One unhandled handler exception that happened during a ``tell``."""

    actor: int
    error_type: str
    message: str
    exception: BaseException | None = None

    def __str__(self) -> str:
        return f"actor {self.actor}: {self.error_type}: {self.message}"


def _revive_exception(error_type: str, message: str) -> BaseException:
    """Best-effort reconstruction of an exception that crossed a process
    boundary: repro exceptions and builtins revive by name, everything else
    becomes an :class:`ExecutionError`."""
    cls = getattr(_exceptions, error_type, None) or getattr(builtins, error_type, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        return ExecutionError(f"{error_type}: {message}")
    try:
        return cls(message)
    except TypeError:
        # Exotic constructor signature (extra required arguments); RPA005
        # lints project exceptions against exactly this.
        return ExecutionError(f"{error_type}: {message}")


class _PendingSlot:
    """Parent-side wait state of one in-flight ``ask``/``barrier`` round trip."""

    __slots__ = ("event", "ok", "value", "actor")

    def __init__(self, actor: int = -1) -> None:
        self.event = threading.Event()
        self.ok = False
        self.value: object = None
        self.actor = actor

    def resolve(self, ok: bool, value: object) -> None:
        self.ok = ok
        self.value = value
        self.event.set()

    def result(self) -> object:
        """The reply, or re-raise the failure the worker shipped."""
        if self.ok:
            return self.value
        failure = self.value
        if isinstance(failure, BaseException):
            raise failure
        # A non-exception failure value would be a protocol bug; never lose it.
        raise ExecutionError(f"actor round trip failed: {failure!r}")


class ActorGroup:
    """Common bookkeeping for every actor-group implementation."""

    def __init__(self, n_actors: int) -> None:
        if n_actors < 1:
            raise ExecutionError("an actor group needs at least one actor")
        self.n_actors = n_actors
        self.crashes: list[ActorCrash] = []
        self._closed = False

    # -- interface ------------------------------------------------------- #
    def tell(self, actor: int, message: object) -> None:
        """Fire-and-forget: enqueue ``message`` for ``actor``."""
        raise NotImplementedError

    def ask(self, actor: int, message: object) -> object:
        """Round trip: process ``message`` on ``actor`` and return the reply.

        Re-raises the handler's exception (revived by name when it crossed a
        process boundary).
        """
        raise NotImplementedError

    def barrier(self) -> None:
        """Block until every actor has processed all previously sent
        messages and their events have been delivered, then surface any
        crashes recorded since the last barrier."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every actor and release its worker (idempotent)."""
        raise NotImplementedError

    @property
    def local_handlers(self) -> list | None:
        """The live handler objects when they share the caller's memory
        (serial and thread groups); ``None`` for socket groups.  Thread
        groups barrier first, so the handlers are quiescent."""
        return None

    def handler(self, actor: int) -> object | None:
        """One live handler *without* synchronisation (``None`` when handlers
        don't share the caller's memory).

        Unlike :attr:`local_handlers` this never barriers; the caller must
        ensure the state it reads has quiesced — e.g. by reading only what
        a just-completed ``ask`` round-trip produced.
        """
        return None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    # -- shared helpers -------------------------------------------------- #
    def _check_actor(self, actor: int) -> None:
        if self._closed:
            raise ExecutionError("actor group is closed")
        if not 0 <= actor < self.n_actors:
            raise ExecutionError(
                f"actor index {actor} out of range (group has {self.n_actors})"
            )

    def raise_crashes(self) -> None:
        """Raise :class:`ExecutionError` if any actor crashed on a ``tell``."""
        if not self.crashes:
            return
        crashes, self.crashes = list(self.crashes), []
        shown = "; ".join(str(crash) for crash in crashes[:3])
        more = f" (+{len(crashes) - 3} more)" if len(crashes) > 3 else ""
        failure = ExecutionError(
            f"{len(crashes)} actor message(s) crashed outside the isolation "
            f"contract: {shown}{more}"
        )
        cause = crashes[0].exception
        if cause is not None:
            raise failure from cause
        raise failure

    def __enter__(self) -> "ActorGroup":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class SerialActorGroup(ActorGroup):
    """Inline dispatch: the reference implementation of the protocol."""

    def __init__(
        self,
        factories: Sequence[Callable],
        *,
        on_event: Callable[[int, object], None] | None = None,
    ) -> None:
        super().__init__(len(factories))
        self._handlers = [
            factory(self._make_emit(index)) for index, factory in enumerate(factories)
        ]
        self._on_event = on_event

    def _make_emit(self, index: int) -> Callable[[object], None]:
        def emit(event: object) -> None:
            if self._on_event is not None:
                self._on_event(index, event)

        return emit

    @property
    def local_handlers(self) -> list:
        return list(self._handlers)

    def handler(self, actor: int) -> object | None:
        self._check_actor(actor)
        return self._handlers[actor]

    def tell(self, actor: int, message: object) -> None:
        self._check_actor(actor)
        try:
            self._handlers[actor].handle(message)
        except Exception as error:  # noqa: BLE001 — uniform crash contract
            self.crashes.append(
                ActorCrash(actor, type(error).__name__, str(error), error)
            )

    def ask(self, actor: int, message: object) -> object:
        self._check_actor(actor)
        return self._handlers[actor].handle(message)

    def barrier(self) -> None:
        if self._closed:
            raise ExecutionError("actor group is closed")
        self.raise_crashes()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.raise_crashes()


class ThreadActorGroup(ActorGroup):
    """One worker thread per actor; handlers share the caller's memory."""

    def __init__(
        self,
        factories: Sequence[Callable],
        *,
        on_event: Callable[[int, object], None] | None = None,
    ) -> None:
        import queue

        super().__init__(len(factories))
        self._on_event = on_event
        self._event_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _PendingSlot] = {}
        self._tokens = itertools.count()
        self._handlers: list = [None] * len(factories)
        self._queues = [queue.Queue(maxsize=_MAILBOX_CAPACITY) for _ in factories]
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(index, factory),
                name=f"repro-actor-{index}",
                daemon=True,
            )
            for index, factory in enumerate(factories)
        ]
        for thread in self._threads:
            thread.start()

    # -- worker side ----------------------------------------------------- #
    def _worker(self, index: int, factory: Callable) -> None:
        def emit(event: object) -> None:
            if self._on_event is None:
                return
            with self._event_lock:
                try:
                    self._on_event(index, event)
                except Exception as error:  # noqa: BLE001 — a broken event
                    # callback must not kill the worker (or, via an
                    # unwinding handler, wedge the group); surface it as a
                    # crash at the next barrier instead.
                    self._record_crash(index, error)

        try:
            handler = factory(emit)
            self._handlers[index] = handler
        except Exception as error:  # noqa: BLE001 — surfaced as a crash
            handler = None
            self._record_crash(index, error)
        while True:
            token, message = self._queues[index].get()
            if message is _STOP:
                break
            if message is _BARRIER:
                self._resolve(token, True, None)
                continue
            if handler is None:
                failure = ExecutionError(f"actor {index} failed to initialise")
                if token is None:
                    self._record_crash(index, failure)
                else:
                    self._resolve(token, False, failure)
                continue
            try:
                reply = handler.handle(message)
            except Exception as error:  # noqa: BLE001 — shipped to the caller
                if token is None:
                    self._record_crash(index, error)
                else:
                    self._resolve(token, False, error)
            else:
                if token is not None:
                    self._resolve(token, True, reply)

    def _record_crash(self, index: int, error: BaseException) -> None:
        with self._pending_lock:
            self.crashes.append(
                ActorCrash(index, type(error).__name__, str(error), error)
            )

    def _resolve(self, token: int, ok: bool, value: object) -> None:
        with self._pending_lock:
            slot = self._pending[token]
        slot.resolve(ok, value)

    # -- caller side ----------------------------------------------------- #
    @property
    def local_handlers(self) -> list:
        self.barrier()
        return list(self._handlers)

    def handler(self, actor: int) -> object | None:
        self._check_actor(actor)
        return self._handlers[actor]

    def tell(self, actor: int, message: object) -> None:
        self._check_actor(actor)
        self._queues[actor].put((None, message))

    def _ask_raw(self, actor: int, message: object) -> object:
        token = next(self._tokens)
        slot = _PendingSlot()
        with self._pending_lock:
            self._pending[token] = slot
        self._queues[actor].put((token, message))
        slot.event.wait()
        with self._pending_lock:
            del self._pending[token]
        return slot.result()

    def ask(self, actor: int, message: object) -> object:
        self._check_actor(actor)
        return self._ask_raw(actor, message)

    def barrier(self) -> None:
        if self._closed:
            raise ExecutionError("actor group is closed")
        tokens = []
        with self._pending_lock:
            for _ in range(self.n_actors):
                token = next(self._tokens)
                self._pending[token] = _PendingSlot()
                tokens.append(token)
        for actor, token in enumerate(tokens):
            self._queues[actor].put((token, _BARRIER))
        for token in tokens:
            with self._pending_lock:
                slot = self._pending[token]
            slot.event.wait()
            with self._pending_lock:
                del self._pending[token]
        self.raise_crashes()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for queue_ in self._queues:
            queue_.put((None, _STOP))
        for thread in self._threads:
            thread.join(timeout=30.0)
        self.raise_crashes()
