"""One execution runtime for every parallel surface of the package.

``repro.exec`` is where *how work runs* is decided, exactly once: the fleet
executor (:meth:`repro.api.Simplifier.run_many`), the streaming hub
(:class:`repro.streaming.StreamHub`), the perf harness and the CLI all
resolve their ``backend=`` / ``--backend`` knobs through
:func:`resolve_backend` and execute through the same
:class:`ExecutionBackend` objects.

Two execution shapes are offered:

- **isolated task maps** (:meth:`ExecutionBackend.map_isolated`) for
  fleet-style batch fan-out with per-task error quarantine, and
- **actor groups** (:meth:`ExecutionBackend.start_actors`,
  :mod:`repro.exec.actors`) for long-lived stateful workers such as the
  hub's shards.

All four backends (``serial``, ``thread``, ``process``, ``node``) are
contractually equivalent: for deterministic work they produce byte-identical
results, a property the test suite locks in across both consumers.

``NodeBackend`` / ``NodeActorGroup`` (:mod:`repro.exec.node`) are exported
lazily.  ``NodeActorGroup`` is the one cross-process actor transport: the
``process`` backend starts its actors on it too.  The node module depends
on the streaming wire codec, and importing it eagerly here would cycle
through ``repro.streaming`` → ``repro.exec`` during package init.
"""

from .actors import (
    ActorCrash,
    ActorGroup,
    SerialActorGroup,
    ThreadActorGroup,
)
from .backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    TaskFailure,
    TaskOutcome,
    ThreadBackend,
    resolve_backend,
)

__all__ = [
    "ActorCrash",
    "ActorGroup",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "NodeActorGroup",
    "NodeBackend",
    "ProcessBackend",
    "SerialActorGroup",
    "SerialBackend",
    "TaskFailure",
    "TaskOutcome",
    "ThreadActorGroup",
    "ThreadBackend",
    "resolve_backend",
]

_LAZY_EXPORTS = {"NodeActorGroup", "NodeBackend"}


def __getattr__(name: str):  # noqa: ANN202 — PEP 562 lazy exports
    if name in _LAZY_EXPORTS:
        from . import node

        return getattr(node, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY_EXPORTS)
