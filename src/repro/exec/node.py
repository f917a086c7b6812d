"""The ``node`` backend: the package's one cross-process backend.

:class:`NodeBackend` runs both execution shapes in worker processes:
isolated task maps on a ``ProcessPoolExecutor`` (the fleet executor's
shape), and actors on :class:`NodeActorGroup` (the streaming hub's shape).
This module is the only place in the package that creates processes;
analysis rule RPA007 enforces that.

:class:`NodeActorGroup` speaks the tell/ask/barrier mailbox protocol of
:mod:`repro.exec.actors` over a length-prefixed socket RPC, the shape a
genuinely distributed shard fabric needs: workers *connect* to the parent
and complete a token handshake, liveness is observed through heartbeats
rather than process handles, and every payload crosses the boundary as a
:mod:`repro.streaming.wire` frame.  Both socket ends set ``TCP_NODELAY``:
mailbox packets are small request/reply exchanges, and Nagle's algorithm
combined with delayed ACKs would hold a reply back by tens of milliseconds.

Today the workers are still local child processes (``127.0.0.1``), so the
backend is testable in CI and byte-identical to the serial reference; the
protocol itself never assumes locality.

Packet layout (one packet per mailbox operation)::

    u32 LE packet length | u8 op | i64 LE token | payload

``token`` is ``-1`` for fire-and-forget ops and a parent-issued correlation
id for ``ASK``/``BARRIER`` round trips.  The payload is a wire frame body:

- generic messages, replies and events travel as ``blob`` frames wrapping a
  pickle;
- the hub's hot-path ``("push_frame", <bytes>)`` tells travel as the raw
  columnar ``point-batch`` frame — zero pickling on the ingest path;
- shard segment events travel as columnar ``segment-batch`` frames;
- handshakes, crash reports and error replies are ``json`` frames, so a
  failure is never trapped behind an unpicklable payload.

Failure semantics: a worker that disconnects, dies, or goes silent past
the heartbeat timeout is *marked dead* — its pending round trips fail with
:class:`~repro.exceptions.ExecutionError`, a crash is recorded for the
next barrier, and the rest of the group keeps running.  Recovery is the
hub's checkpoint path: restore the last shipped checkpoint onto a fresh
(possibly smaller) group via ``restore_hub(..., backend="node")``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import socket
import struct
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial
from typing import Callable, Sequence

from ..exceptions import ExecutionError, InvalidParameterError, WireFormatError
from ..streaming.wire import decode_frame, encode_frame
from ..trajectory.piecewise import SegmentRecord
from .actors import ActorCrash, ActorGroup, _PendingSlot, _revive_exception
from .backends import ExecutionBackend, TaskOutcome, _isolated_call

__all__ = [
    "NodeActorGroup",
    "NodeBackend",
    "NODE_PROTOCOL_VERSION",
]

NODE_PROTOCOL_VERSION = 1
"""Handshake version; parent and worker must agree exactly."""

_LENGTH = struct.Struct("<I")
_PACKET = struct.Struct("<Bq")

_OP_HELLO = 1
_OP_WELCOME = 2
_OP_TELL = 3
_OP_TELL_FRAME = 4
_OP_ASK = 5
_OP_BARRIER = 6
_OP_STOP = 7
_OP_REPLY = 8
_OP_EVENT = 9
_OP_CRASH = 10
_OP_HEARTBEAT = 11

_NO_TOKEN = -1

_LOCALHOST = "127.0.0.1"


# ---------------------------------------------------------------------- #
# Packet plumbing (shared by parent and worker)
# ---------------------------------------------------------------------- #
def _pack_packet(op: int, token: int, payload: bytes) -> bytes:
    header = _PACKET.pack(op, token)
    return _LENGTH.pack(len(header) + len(payload)) + header + payload


def _recv_exact(sock: socket.socket, size: int) -> bytes | None:
    """Read exactly ``size`` bytes; ``None`` on end-of-stream."""
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_packet(sock: socket.socket) -> tuple[int, int, bytes] | None:
    """Read one packet; ``None`` on end-of-stream (clean or mid-packet —
    either way the peer is gone)."""
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length < _PACKET.size:
        raise WireFormatError(f"node packet too short ({length} bytes)")
    body = _recv_exact(sock, length)
    if body is None:
        return None
    op, token = _PACKET.unpack_from(body)
    return op, token, body[_PACKET.size :]


def _send_packet(
    sock: socket.socket, lock: threading.Lock, op: int, token: int, payload: bytes
) -> None:
    packet = _pack_packet(op, token, payload)
    with lock:
        sock.sendall(packet)


def _encode_value(value: object) -> bytes:
    """Encode a generic mailbox payload (pickle wrapped in a blob frame)."""
    return encode_frame("blob", pickle.dumps(value))


def _decode_value(body: bytes) -> object:
    """Inverse of :func:`_encode_value`; also accepts plain json frames."""
    name, payload = decode_frame(body)
    if name == "blob":
        return pickle.loads(payload)
    return payload


def _encode_error(error_type: str, message: str) -> bytes:
    return encode_frame("json", [error_type, message])


def _decode_error(body: bytes) -> tuple[str, str]:
    payload = decode_frame(body)[1]
    if (
        not isinstance(payload, list)
        or len(payload) != 2
        or not all(isinstance(part, str) for part in payload)
    ):
        raise WireFormatError(f"malformed node error payload: {payload!r}")
    return payload[0], payload[1]


def _is_segment_event(event: object) -> bool:
    """Whether ``event`` is a shard segment event the columnar
    ``segment-batch`` frame can carry faithfully."""
    if not (isinstance(event, tuple) and event and isinstance(event[0], str)):
        return False
    if event[0] == "segments" and len(event) == 3:
        _, device, records = event
        level = 0
    elif event[0] == "level_segments" and len(event) == 4:
        _, device, level, records = event
    else:
        return False
    return (
        isinstance(device, str)
        and isinstance(level, int)
        and not isinstance(level, bool)
        and 0 <= level <= 0xFFFFFFFF
        and isinstance(records, (list, tuple))
        and all(isinstance(record, SegmentRecord) for record in records)
    )


def _encode_event(event: object) -> bytes:
    """Encode one emitted event: segment events columnar, the rest pickled."""
    if _is_segment_event(event):
        assert isinstance(event, tuple)
        if event[0] == "segments":
            payload = ("segments", event[1], 0, list(event[2]))
        else:
            payload = ("level_segments", event[1], event[2], list(event[3]))
        return encode_frame("segment-batch", payload)
    return _encode_value(event)


def _decode_event(body: bytes) -> object:
    """Inverse of :func:`_encode_event`."""
    name, payload = decode_frame(body)
    if name == "segment-batch":
        tag, device, level, records = payload
        if tag == "segments":
            return (tag, device, records)
        return (tag, device, level, records)
    if name == "blob":
        return pickle.loads(payload)
    return payload


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _node_worker_main(
    factory: Callable,
    host: str,
    port: int,
    index: int,
    secret: str,
    heartbeat_interval: float,
) -> None:
    """Entry point of one node worker process: connect, handshake, serve."""
    deadline = time.monotonic() + 30.0
    while True:
        try:
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            break
        except OSError:
            if time.monotonic() > deadline:
                return
            time.sleep(0.05)
    send_lock = threading.Lock()

    def send(op: int, token: int, payload: bytes) -> None:
        _send_packet(sock, send_lock, op, token, payload)

    try:
        send(
            _OP_HELLO,
            _NO_TOKEN,
            encode_frame(
                "json",
                {"index": index, "secret": secret, "version": NODE_PROTOCOL_VERSION},
            ),
        )
        welcome = _recv_packet(sock)
        if welcome is None or welcome[0] != _OP_WELCOME:
            return

        stop_heartbeat = threading.Event()

        def heartbeat() -> None:
            while not stop_heartbeat.wait(heartbeat_interval):
                try:
                    send(_OP_HEARTBEAT, _NO_TOKEN, b"")
                except OSError:
                    return

        threading.Thread(
            target=heartbeat, name=f"repro-node-heartbeat-{index}", daemon=True
        ).start()

        def emit(event: object) -> None:
            send(_OP_EVENT, _NO_TOKEN, _encode_event(event))

        try:
            handler = factory(emit)
        except Exception as error:  # noqa: BLE001 — surfaced as a crash
            handler = None
            send(_OP_CRASH, _NO_TOKEN, _encode_error(type(error).__name__, str(error)))

        while True:
            packet = _recv_packet(sock)
            if packet is None:
                break
            op, token, payload = packet
            if op == _OP_STOP:
                break
            if op == _OP_BARRIER:
                send(_OP_REPLY, token, b"\x01" + encode_frame("json", None))
                continue
            if op not in (_OP_TELL, _OP_TELL_FRAME, _OP_ASK):
                continue
            try:
                message: object
                if op == _OP_TELL_FRAME:
                    message = ("push_frame", payload)
                else:
                    message = _decode_value(payload)
            except Exception as error:  # noqa: BLE001 — undecodable message
                info = _encode_error(type(error).__name__, str(error))
                if op == _OP_ASK:
                    send(_OP_REPLY, token, b"\x00" + info)
                else:
                    send(_OP_CRASH, _NO_TOKEN, info)
                continue
            if handler is None:
                info = _encode_error("ExecutionError", "actor failed to initialise")
                if op == _OP_ASK:
                    send(_OP_REPLY, token, b"\x00" + info)
                else:
                    send(_OP_CRASH, _NO_TOKEN, info)
                continue
            try:
                reply = handler.handle(message)
            except Exception as error:  # noqa: BLE001 — shipped to the caller
                info = _encode_error(type(error).__name__, str(error))
                if op == _OP_ASK:
                    send(_OP_REPLY, token, b"\x00" + info)
                else:
                    send(_OP_CRASH, _NO_TOKEN, info)
            else:
                if op != _OP_ASK:
                    continue
                try:
                    send(_OP_REPLY, token, b"\x01" + _encode_value(reply))
                except OSError:
                    raise
                except Exception as error:  # noqa: BLE001 — unpicklable reply
                    send(
                        _OP_REPLY,
                        token,
                        b"\x00"
                        + _encode_error(
                            "ExecutionError", f"reply not sendable: {error}"
                        ),
                    )
        stop_heartbeat.set()
    except OSError:
        pass  # the parent is gone; nothing left to report to
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover — teardown best effort
            pass


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
class NodeActorGroup(ActorGroup):
    """Actor workers in child processes reached over a socket RPC.

    Implements the mailbox contract of :mod:`repro.exec.actors` (FIFO per
    actor, events delivered before the triggering round trip returns,
    crashes surfaced at the next barrier) with socket transport, a token
    handshake, and heartbeat-based dead-worker detection.
    """

    def __init__(
        self,
        factories: Sequence[Callable],
        *,
        on_event: Callable[[int, object], None] | None = None,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 15.0,
        connect_timeout: float = 30.0,
    ) -> None:
        super().__init__(len(factories))
        self._on_event = on_event
        self._event_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _PendingSlot] = {}
        self._tokens = itertools.count()
        self._dead: set[int] = set()
        self._closing = False
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout

        listener = socket.create_server((_LOCALHOST, 0))
        port = listener.getsockname()[1]
        secret = os.urandom(16).hex()
        context = multiprocessing.get_context()
        self._processes = []
        for index, factory in enumerate(factories):
            process = context.Process(
                target=_node_worker_main,
                args=(
                    factory,
                    _LOCALHOST,
                    port,
                    index,
                    secret,
                    heartbeat_interval,
                ),
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        try:
            self._sockets = self._handshake(listener, secret, connect_timeout)
        except BaseException:
            for process in self._processes:
                process.terminate()
            listener.close()
            raise
        listener.close()

        now = time.monotonic()
        self._last_seen = [now] * self.n_actors
        self._send_locks = [threading.Lock() for _ in self._sockets]
        self._readers = [
            threading.Thread(
                target=self._read_loop,
                args=(index,),
                name=f"repro-node-reader-{index}",
                daemon=True,
            )
            for index in range(self.n_actors)
        ]
        self._monitor_stop = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-node-monitor", daemon=True
        )
        for reader in self._readers:
            reader.start()
        self._monitor.start()

    # -- startup --------------------------------------------------------- #
    def _handshake(
        self, listener: socket.socket, secret: str, timeout: float
    ) -> list[socket.socket]:
        """Accept one authenticated connection per worker, in any order."""
        deadline = time.monotonic() + timeout
        sockets: dict[int, socket.socket] = {}
        listener.settimeout(0.1)
        try:
            while len(sockets) < self.n_actors:
                if time.monotonic() > deadline:
                    raise ExecutionError(
                        f"node worker handshake timed out after {timeout:.0f}s "
                        f"({len(sockets)}/{self.n_actors} workers connected)"
                    )
                for index, process in enumerate(self._processes):
                    if index not in sockets and not process.is_alive():
                        raise ExecutionError(
                            f"node worker {index} died before completing its handshake"
                        )
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(5.0)
                index = self._validate_hello(conn, secret, sockets)
                _send_packet(
                    conn,
                    threading.Lock(),
                    _OP_WELCOME,
                    _NO_TOKEN,
                    encode_frame("json", {"version": NODE_PROTOCOL_VERSION}),
                )
                conn.settimeout(None)
                sockets[index] = conn
        except BaseException:
            for accepted in sockets.values():
                accepted.close()
            raise
        return [sockets[index] for index in range(self.n_actors)]

    def _validate_hello(
        self, conn: socket.socket, secret: str, sockets: dict[int, socket.socket]
    ) -> int:
        try:
            packet = _recv_packet(conn)
        except (TimeoutError, OSError, WireFormatError) as error:
            conn.close()
            raise ExecutionError(f"node worker handshake failed: {error}") from error
        if packet is None or packet[0] != _OP_HELLO:
            conn.close()
            raise ExecutionError("node worker handshake failed: no HELLO packet")
        try:
            hello = decode_frame(packet[2])[1]
        except WireFormatError as error:
            conn.close()
            raise ExecutionError(f"node worker handshake failed: {error}") from error
        if not isinstance(hello, dict) or hello.get("secret") != secret:
            conn.close()
            raise ExecutionError(
                "node worker handshake failed: bad or missing session token"
            )
        if hello.get("version") != NODE_PROTOCOL_VERSION:
            conn.close()
            raise ExecutionError(
                f"node worker handshake failed: protocol version "
                f"{hello.get('version')!r} (parent speaks {NODE_PROTOCOL_VERSION})"
            )
        index = hello.get("index")
        if not isinstance(index, int) or not 0 <= index < self.n_actors:
            conn.close()
            raise ExecutionError(
                f"node worker handshake failed: bad worker index {index!r}"
            )
        if index in sockets:
            conn.close()
            raise ExecutionError(
                f"node worker handshake failed: duplicate worker index {index}"
            )
        return index

    # -- reader / monitor threads ---------------------------------------- #
    def _read_loop(self, index: int) -> None:
        sock = self._sockets[index]
        while True:
            try:
                packet = _recv_packet(sock)
            except (OSError, WireFormatError):
                packet = None
            if packet is None:
                self._mark_dead(index, "connection lost")
                return
            self._last_seen[index] = time.monotonic()
            op, token, payload = packet
            if op == _OP_HEARTBEAT:
                continue
            if op == _OP_EVENT:
                self._handle_event(index, payload)
            elif op == _OP_REPLY:
                self._handle_reply(index, token, payload)
            elif op == _OP_CRASH:
                self._handle_crash(index, payload)

    def _handle_event(self, index: int, payload: bytes) -> None:
        if self._on_event is None:
            return
        try:
            event = _decode_event(payload)
        except Exception as error:  # noqa: BLE001 — a bad event frame must
            # not kill the reader (its death would wedge the group).
            with self._pending_lock:
                self.crashes.append(ActorCrash(index, type(error).__name__, str(error)))
            return
        with self._event_lock:
            try:
                self._on_event(index, event)
            except Exception as error:  # noqa: BLE001 — the reader must
                # survive a broken event callback; surface it at the next
                # barrier like every in-process group does.
                with self._pending_lock:
                    self.crashes.append(
                        ActorCrash(index, type(error).__name__, str(error))
                    )

    def _handle_reply(self, index: int, token: int, payload: bytes) -> None:
        try:
            if not payload:
                raise WireFormatError("empty reply payload")
            if payload[0]:
                self._resolve(token, True, _decode_value(payload[1:]))
            else:
                error_type, message = _decode_error(payload[1:])
                self._resolve(token, False, _revive_exception(error_type, message))
        except Exception as error:  # noqa: BLE001 — an undecodable reply
            # must still resolve the waiter, or the ask would hang forever.
            self._resolve(
                token,
                False,
                ExecutionError(f"actor {index} sent an undecodable reply: {error}"),
            )

    def _handle_crash(self, index: int, payload: bytes) -> None:
        try:
            error_type, message = _decode_error(payload)
        except Exception as error:  # noqa: BLE001 — keep the reader alive
            error_type, message = type(error).__name__, str(error)
        with self._pending_lock:
            self.crashes.append(ActorCrash(index, error_type, message))

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self._heartbeat_interval):
            now = time.monotonic()
            for index in range(self.n_actors):
                if index in self._dead:
                    continue
                silent = now - self._last_seen[index]
                if silent > self._heartbeat_timeout:
                    self._mark_dead(
                        index,
                        f"no heartbeat for {silent:.1f}s "
                        f"(timeout {self._heartbeat_timeout:.1f}s)",
                    )

    def _mark_dead(self, index: int, reason: str) -> None:
        """Fail the worker over: record the crash, fail its pending round
        trips, close its socket.  Idempotent."""
        error = ExecutionError(f"actor {index} node worker died: {reason}")
        with self._pending_lock:
            if index in self._dead:
                return
            self._dead.add(index)
            if not self._closing:  # EOF during close is a normal shutdown
                self.crashes.append(ActorCrash(index, "ExecutionError", str(error)))
            slots = [slot for slot in self._pending.values() if slot.actor == index]
        for slot in slots:
            slot.resolve(False, error)
        try:
            self._sockets[index].close()
        except OSError:  # pragma: no cover — teardown best effort
            pass

    def _resolve(self, token: int, ok: bool, value: object) -> None:
        with self._pending_lock:
            slot = self._pending.get(token)
        if slot is None:  # already failed over by _mark_dead
            return
        slot.resolve(ok, value)

    # -- caller side ------------------------------------------------------ #
    def worker_pids(self) -> list[int | None]:
        """Worker process ids, by actor index (for chaos drills and ops)."""
        return [process.pid for process in self._processes]

    def _send(self, actor: int, op: int, token: int, payload: bytes) -> None:
        if actor in self._dead:
            raise ExecutionError(f"actor {actor} node worker died")
        try:
            _send_packet(self._sockets[actor], self._send_locks[actor], op, token, payload)
        except OSError as error:
            self._mark_dead(actor, f"send failed: {error}")
            raise ExecutionError(f"actor {actor} is unreachable: {error}") from error

    def tell(self, actor: int, message: object) -> None:
        self._check_actor(actor)
        if (
            isinstance(message, tuple)
            and len(message) == 2
            and message[0] == "push_frame"
            and isinstance(message[1], (bytes, bytearray))
        ):
            # The hub's hot path: the columnar frame is already encoded,
            # ship its bytes verbatim — no pickle anywhere on the route.
            self._send(actor, _OP_TELL_FRAME, _NO_TOKEN, bytes(message[1]))
            return
        self._send(actor, _OP_TELL, _NO_TOKEN, _encode_value(message))

    def _ask_raw(self, actor: int, op: int, payload: bytes) -> object:
        token = next(self._tokens)
        slot = _PendingSlot(actor)
        with self._pending_lock:
            self._pending[token] = slot
        try:
            self._send(actor, op, token, payload)
        except BaseException:
            # Includes pickling errors from _encode_value upstream callers:
            # the slot must not outlive the failed send.
            with self._pending_lock:
                del self._pending[token]
            raise
        slot.event.wait()
        with self._pending_lock:
            del self._pending[token]
        return slot.result()

    def ask(self, actor: int, message: object) -> object:
        self._check_actor(actor)
        return self._ask_raw(actor, _OP_ASK, _encode_value(message))

    def barrier(self) -> None:
        if self._closed:
            raise ExecutionError("actor group is closed")
        for actor in range(self.n_actors):
            if actor in self._dead:
                continue
            self._ask_raw(actor, _OP_BARRIER, b"")
        self.raise_crashes()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._closing = True
        self._monitor_stop.set()
        for actor in range(self.n_actors):
            if actor in self._dead:
                continue
            try:
                self._send(actor, _OP_STOP, _NO_TOKEN, b"")
            except ExecutionError:
                pass
        for process in self._processes:
            process.join(timeout=30.0)
            if process.is_alive():  # pragma: no cover — defensive teardown
                process.terminate()
                process.join(timeout=5.0)
        # Let every reader drain its socket to EOF before teardown: events
        # the workers sent just before exiting are still buffered, and
        # dropping them would lose finalised segments at the hub's sinks.
        for reader in self._readers:
            reader.join(timeout=30.0)
            if reader.is_alive():  # pragma: no cover — defensive teardown
                break
        for sock in self._sockets:
            try:
                sock.close()
            except OSError:  # pragma: no cover — teardown best effort
                pass
        self._monitor.join(timeout=5.0)
        for process in self._processes:
            process.close()
        self.raise_crashes()


# ---------------------------------------------------------------------- #
# Backend
# ---------------------------------------------------------------------- #
def _isolated_call_remote(fn: Callable, pair: tuple[int, object]) -> TaskOutcome:
    """Pool wrapper: strip the exception object before it crosses the
    process boundary (arbitrary exceptions do not reliably pickle).  The
    formatted ``traceback`` string stays — it is the only record of the
    original failure site the parent ever sees."""
    index, task = pair
    outcome = _isolated_call(fn, index, task)
    if outcome.failure is not None and outcome.failure.exception is not None:
        outcome = replace(outcome, failure=replace(outcome.failure, exception=None))
    return outcome


class NodeBackend(ExecutionBackend):
    """A worker process per slot: the package's one cross-process backend.

    Isolated task maps run on a ``ProcessPoolExecutor``; actors run on a
    :class:`NodeActorGroup`.  Functions, tasks, generic messages and
    results must be picklable; the hub's point batches bypass pickle
    entirely via the columnar wire frames, and exceptions crossing the
    boundary are reduced to ``(type name, message)`` pairs.
    ``heartbeat_timeout`` bounds how long a silent actor worker is trusted
    before the group fails it over.  On platforms whose multiprocessing
    start method is ``spawn`` (macOS, Windows), algorithms registered at
    runtime in the parent are only visible to workers when registration
    happens at import time; on Linux (``fork``) runtime registrations
    carry over.
    """

    name = "node"

    def __init__(
        self,
        workers: int = 1,
        *,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 15.0,
        connect_timeout: float = 30.0,
    ) -> None:
        super().__init__(workers)
        if heartbeat_interval <= 0:
            raise InvalidParameterError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if heartbeat_timeout <= heartbeat_interval:
            raise InvalidParameterError(
                f"heartbeat_timeout must exceed heartbeat_interval, got "
                f"{heartbeat_timeout} <= {heartbeat_interval}"
            )
        if connect_timeout <= 0:
            raise InvalidParameterError(
                f"connect_timeout must be positive, got {connect_timeout}"
            )
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout

    def map_isolated(self, fn: Callable, tasks: Sequence) -> list[TaskOutcome]:
        if not tasks:
            return []
        pool_size = self.effective_workers(len(tasks))
        # A handful of batches per worker: few enough round trips to keep
        # pickling overhead low, enough to balance uneven task costs.
        chunksize = max(1, len(tasks) // (pool_size * 4))
        try:
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                return list(
                    pool.map(
                        partial(_isolated_call_remote, fn),
                        enumerate(tasks),
                        chunksize=chunksize,
                    )
                )
        except BrokenProcessPool as error:
            raise ExecutionError(f"a node task worker died: {error}") from error

    def start_actors(
        self,
        factories: Sequence[Callable],
        *,
        on_event: Callable[[int, object], None] | None = None,
    ) -> ActorGroup:
        return NodeActorGroup(
            factories,
            on_event=on_event,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            connect_timeout=self.connect_timeout,
        )
