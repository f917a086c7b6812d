"""Pluggable execution backends: one runtime for every parallel surface.

Before this module existed the repository had two hand-rolled concurrency
layers: the fleet executor (:func:`repro.api.executor.run_many`) managed its
own ``ProcessPoolExecutor``, and the streaming hub partitioned devices across
purely in-process shards.  Both now delegate to an
:class:`ExecutionBackend`, which offers exactly two execution shapes:

- :meth:`ExecutionBackend.map_isolated` — run a picklable function over a
  sequence of tasks with **per-task error isolation**: every task yields a
  :class:`TaskOutcome` carrying either the result or a :class:`TaskFailure`,
  and one bad task can never sink its siblings.  This is the fleet
  executor's shape.
- :meth:`ExecutionBackend.start_actors` — spawn long-lived, stateful
  workers (see :mod:`repro.exec.actors`) with a tell/ask/barrier mailbox
  protocol and event routing back to the caller.  This is the streaming
  hub's shape: each actor owns a slice of the hub's shards.

Four backends implement both shapes:

``SerialBackend``
    Everything inline in the calling thread — zero overhead, the reference
    semantics every other backend must reproduce byte-identically.
``ThreadBackend``
    A thread per worker.  Python bytecode still serialises on the GIL, but
    the vectorized geometry kernels (and any I/O in sinks) release it, so
    shards overlap where it counts.
``ProcessBackend``
    A process per worker.  Isolated task maps run on a
    ``ProcessPoolExecutor``; actors run on the node backend's socket group
    (:class:`~repro.exec.node.NodeActorGroup`) with its default heartbeat
    settings.  Functions, tasks, results and actor messages must be
    picklable; exceptions crossing the boundary are reduced to
    ``(type name, message)`` pairs.  On platforms whose multiprocessing
    start method is ``spawn`` (macOS, Windows), algorithms registered at
    runtime in the parent are only visible to workers when registration
    happens at import time; on Linux (``fork``) runtime registrations carry
    over.
``NodeBackend`` (:mod:`repro.exec.node`)
    A worker process per slot reached over a length-prefixed socket RPC
    with handshake, heartbeats and columnar wire frames — the distributed
    shard-fabric shape — for task maps as well as actors.  Its heartbeat
    and connect timeouts are configurable.

:func:`resolve_backend` is the single factory every layer goes through, so
``"serial" | "thread" | "process" | "node" | "auto"`` mean the same thing
in ``run_many``, ``StreamHub``, the perf harness and the CLI.
"""

from __future__ import annotations

import os
import traceback as _traceback
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

from ..exceptions import InvalidParameterError
from .actors import ActorGroup, SerialActorGroup, ThreadActorGroup

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "TaskFailure",
    "TaskOutcome",
    "resolve_backend",
]

BACKEND_NAMES = ("serial", "thread", "process", "node", "auto")
"""Accepted backend specifiers (``auto`` resolves by worker count)."""


@dataclass(frozen=True, slots=True)
class TaskFailure:
    """Why one isolated task failed.

    ``exception`` carries the original exception object when the failure
    happened in-process (serial and thread backends); failures crossing a
    process boundary are described by ``error_type``/``message`` only.
    ``traceback`` records the originally formatted traceback on every
    backend — unlike the exception object it is a plain string and
    survives the pickle boundary.
    """

    error_type: str
    message: str
    exception: BaseException | None = None
    traceback: str | None = None

    def __str__(self) -> str:
        return f"{self.error_type}: {self.message}"


@dataclass(frozen=True, slots=True)
class TaskOutcome:
    """Result slot of one task of a :meth:`map_isolated` run."""

    index: int
    value: object | None
    failure: TaskFailure | None = None

    @property
    def ok(self) -> bool:
        """Whether the task completed without raising."""
        return self.failure is None


def _isolated_call(fn: Callable, index: int, task: object) -> TaskOutcome:
    """Run one task, converting any exception into a :class:`TaskFailure`."""
    try:
        return TaskOutcome(index, fn(task))
    except Exception as error:  # noqa: BLE001 — isolation is the contract
        formatted = "".join(
            _traceback.format_exception(type(error), error, error.__traceback__)
        )
        return TaskOutcome(
            index, None, TaskFailure(type(error).__name__, str(error), error, formatted)
        )


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


class ExecutionBackend(ABC):
    """One way of executing work: serially, on threads, or on processes.

    Backends are cheap, stateless handles — pools and workers are created
    per call (``map_isolated``) or per group (``start_actors``), never held
    open between them.
    """

    #: Short name recorded in results and perf reports.
    name: str

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be at least 1, got {workers}")
        self.workers = workers

    def effective_workers(self, n_tasks: int) -> int:
        """Workers this backend would actually use for ``n_tasks`` tasks."""
        return max(1, min(self.workers, n_tasks))

    @abstractmethod
    def map_isolated(
        self, fn: Callable, tasks: Sequence, *, chunksize: int | None = None
    ) -> list[TaskOutcome]:
        """Run ``fn`` over ``tasks`` with per-task error isolation.

        Returns one :class:`TaskOutcome` per task, in input order.  The
        call itself never raises for a task failure; inspect
        ``outcome.failure``.  ``chunksize`` sizes the batches handed to each
        worker (process backend only; default gives each worker a handful).
        """

    @abstractmethod
    def start_actors(
        self,
        factories: Sequence[Callable],
        *,
        on_event: Callable[[int, object], None] | None = None,
    ) -> ActorGroup:
        """Spawn one long-lived actor per factory (see :mod:`.actors`).

        Each ``factory(emit)`` builds the actor's handler *inside* its
        worker, receiving an ``emit(event)`` callable that routes events to
        ``on_event(actor_index, event)`` in the caller's process.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """Everything inline: the reference semantics, zero concurrency."""

    name = "serial"

    def __init__(self, workers: int = 1) -> None:
        if workers != 1:
            raise InvalidParameterError(
                f"the serial backend runs exactly 1 worker, got workers={workers}"
            )
        super().__init__(1)

    def effective_workers(self, n_tasks: int) -> int:
        return 1

    def map_isolated(
        self, fn: Callable, tasks: Sequence, *, chunksize: int | None = None
    ) -> list[TaskOutcome]:
        return [_isolated_call(fn, index, task) for index, task in enumerate(tasks)]

    def start_actors(
        self,
        factories: Sequence[Callable],
        *,
        on_event: Callable[[int, object], None] | None = None,
    ) -> ActorGroup:
        return SerialActorGroup(factories, on_event=on_event)


class ThreadBackend(ExecutionBackend):
    """A worker thread per slot; shares memory with the caller."""

    name = "thread"

    def map_isolated(
        self, fn: Callable, tasks: Sequence, *, chunksize: int | None = None
    ) -> list[TaskOutcome]:
        if not tasks:
            return []
        with ThreadPoolExecutor(max_workers=self.effective_workers(len(tasks))) as pool:
            return list(pool.map(partial(_isolated_call_local, fn), enumerate(tasks)))

    def start_actors(
        self,
        factories: Sequence[Callable],
        *,
        on_event: Callable[[int, object], None] | None = None,
    ) -> ActorGroup:
        return ThreadActorGroup(factories, on_event=on_event)


def _isolated_call_local(fn: Callable, pair: tuple[int, object]) -> TaskOutcome:
    """Thread-pool wrapper (keeps the original exception object)."""
    index, task = pair
    return _isolated_call(fn, index, task)


class ProcessBackend(ExecutionBackend):
    """A worker process per slot; tasks and results cross pickle boundaries.

    Actors run on the node backend's socket group, the one cross-process
    actor transport.
    """

    name = "process"

    def map_isolated(
        self, fn: Callable, tasks: Sequence, *, chunksize: int | None = None
    ) -> list[TaskOutcome]:
        if not tasks:
            return []
        pool_size = self.effective_workers(len(tasks))
        if chunksize is None:
            chunksize = max(1, len(tasks) // (pool_size * 4))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            return list(
                pool.map(
                    partial(_isolated_call_remote, fn),
                    enumerate(tasks),
                    chunksize=chunksize,
                )
            )

    def start_actors(
        self,
        factories: Sequence[Callable],
        *,
        on_event: Callable[[int, object], None] | None = None,
    ) -> ActorGroup:
        # Imported lazily for the same reason as in resolve_backend.
        from .node import NodeActorGroup

        return NodeActorGroup(factories, on_event=on_event)


def resolve_backend(
    spec: str | ExecutionBackend = "auto", *, workers: int | None = None
) -> ExecutionBackend:
    """Resolve a backend specifier to a configured :class:`ExecutionBackend`.

    Parameters
    ----------
    spec:
        ``"serial"``, ``"thread"``, ``"process"``, ``"node"``, ``"auto"``,
        or an already-constructed backend (returned unchanged, ``workers``
        ignored).  ``"auto"`` picks serial for ``workers in (None, 1)`` and
        process otherwise — the historical ``run_many`` behaviour.
    workers:
        Worker count for the concurrent backends; defaults to the CPU
        count.  The serial backend always runs exactly one worker and
        ignores this hint — so a ``for backend in (...)`` sweep can pass
        the same ``workers`` everywhere.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if not isinstance(spec, str):
        raise InvalidParameterError(
            f"backend must be one of {BACKEND_NAMES} or an ExecutionBackend, "
            f"got {spec!r}"
        )
    name = spec.lower()
    if name not in BACKEND_NAMES:
        raise InvalidParameterError(
            f"unknown execution backend {spec!r}; available: {', '.join(BACKEND_NAMES)}"
        )
    if workers is not None and workers < 1:
        raise InvalidParameterError(f"workers must be at least 1, got {workers}")
    if name == "auto":
        name = "serial" if workers is None or workers == 1 else "process"
    if name == "serial":
        return SerialBackend()
    default_workers = workers if workers is not None else (os.cpu_count() or 2)
    if name == "thread":
        return ThreadBackend(default_workers)
    if name == "node":
        # Imported lazily: the node backend pulls in the streaming wire
        # codec, and importing it eagerly here would cycle through
        # ``repro.streaming`` → ``repro.exec`` during package init.
        from .node import NodeBackend

        return NodeBackend(default_workers)
    return ProcessBackend(default_workers)
