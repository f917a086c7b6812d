"""Fleet-scale batch executor with pluggable parallelism and error isolation.

A production deployment compresses millions of trajectories, not one; this
module is the single choke point every fleet workload goes through
(:meth:`repro.api.Simplifier.run_many`, :func:`repro.metrics.evaluate_fleet`,
the experiment harness and the CLI).  It offers:

- pluggable execution through :mod:`repro.exec`: a serial fast path, a
  thread pool, or worker processes (``backend="serial" | "thread" |
  "node" | "auto"``, ``auto`` picking serial for one worker and node
  otherwise).  Algorithms are resolved by name inside each worker, so only
  trajectories and plain options cross process boundaries;
- per-trajectory error isolation: one malformed trajectory yields a
  :class:`FleetError` entry instead of sinking the whole fleet run
  (``on_error="collect"``), or a :class:`FleetExecutionError` summarising
  every failure (``on_error="raise"``, the default).

Every backend produces bit-identical representations for the same input, a
property locked in by the test suite.  The :class:`FleetResult` records the
backend and worker count *actually used* — e.g. a one-trajectory fleet
requested with ``workers=8`` collapses to serial and reports ``workers=1``,
and a two-trajectory fleet with ``workers=8`` reports ``workers=2``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..exceptions import FleetExecutionError, InvalidParameterError, UnknownAlgorithmError
from ..exec import ExecutionBackend, SerialBackend, resolve_backend
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import PiecewiseRepresentation
from ..streaming.sinks import SegmentSink, close_sink, flush_sink
from .descriptors import AlgorithmDescriptor, get_descriptor

__all__ = ["FleetError", "FleetResult", "run_many"]

_ON_ERROR_MODES = ("raise", "collect")


@dataclass(frozen=True, slots=True)
class FleetError:
    """One trajectory that failed to compress during a fleet run.

    ``exception`` carries the original exception object when the failure
    happened in-process (serial and thread backends); failures crossing a
    process boundary are described by ``error_type``/``message`` strings
    only.  ``traceback`` carries the originally formatted traceback on
    every backend (it crosses the pickle boundary as a plain string).
    """

    index: int
    trajectory_id: str
    error_type: str
    message: str
    exception: BaseException | None = None
    traceback: str | None = None

    def __str__(self) -> str:
        label = self.trajectory_id or f"#{self.index}"
        return f"trajectory {label}: {self.error_type}: {self.message}"


@dataclass
class FleetResult:
    """Outcome of one :func:`run_many` fleet execution.

    ``representations`` is index-aligned with the input trajectories; failed
    entries are ``None`` and described by a :class:`FleetError` in
    ``errors``.  ``workers`` and ``backend`` record the worker count and
    execution backend *actually used* (a requested pool silently collapses
    to serial for degenerate fleets — that collapse is visible here).
    """

    algorithm: str
    epsilon: float
    workers: int
    seconds: float
    representations: list[PiecewiseRepresentation | None] = field(default_factory=list)
    errors: list[FleetError] = field(default_factory=list)
    backend: str = "serial"

    @property
    def n_total(self) -> int:
        """Number of trajectories submitted."""
        return len(self.representations)

    @property
    def n_failed(self) -> int:
        """Number of trajectories that failed to compress."""
        return len(self.errors)

    @property
    def ok(self) -> bool:
        """True when every trajectory compressed successfully."""
        return not self.errors

    @property
    def total_points(self) -> int:
        """Total input points across the successful representations."""
        return sum(r.source_size for r in self.representations if r is not None)

    @property
    def points_per_second(self) -> float:
        """Fleet throughput in input points per second."""
        if self.seconds <= 0.0:
            return 0.0
        return self.total_points / self.seconds

    def successful(self) -> list[PiecewiseRepresentation]:
        """The successful representations, input order preserved."""
        return [r for r in self.representations if r is not None]

    def raise_if_failed(self) -> None:
        """Raise :class:`FleetExecutionError` if any trajectory failed.

        When the first failure carries its original exception (in-process
        backends), the raised error is chained from it so type and traceback
        stay inspectable.
        """
        if not self.errors:
            return
        shown = "; ".join(str(error) for error in self.errors[:3])
        more = f" (+{len(self.errors) - 3} more)" if len(self.errors) > 3 else ""
        failure = FleetExecutionError(
            f"{len(self.errors)}/{self.n_total} trajectories failed under "
            f"{self.algorithm!r}: {shown}{more}",
            errors=self.errors,
        )
        cause = self.errors[0].exception
        if cause is not None:
            raise failure from cause
        raise failure

    def __len__(self) -> int:
        return len(self.representations)

    def __iter__(self):
        return iter(self.representations)


def _compress_task(task: tuple) -> PiecewiseRepresentation:
    """Worker body: compress one trajectory.

    ``spec`` is the algorithm name for registered algorithms (resolved
    against the registry inside the worker, so only trajectories and plain
    options cross process boundaries) or the descriptor itself for
    unregistered ad-hoc descriptors.  Failures are captured per task by the
    execution backend's isolation contract, not here.
    """
    trajectory, spec, epsilon, opts = task
    return get_descriptor(spec).batch(trajectory, epsilon, **opts)


def run_many(
    algorithm: str | AlgorithmDescriptor,
    trajectories: Sequence[Trajectory],
    epsilon: float,
    *,
    opts: dict | None = None,
    workers: int = 1,
    backend: str | ExecutionBackend = "auto",
    on_error: str = "raise",
    sink_factory: Callable[[str], SegmentSink] | None = None,
) -> FleetResult:
    """Compress a fleet of trajectories through one algorithm.

    Parameters
    ----------
    workers:
        Worker count for the concurrent backends.  With the default
        ``backend="auto"``, ``1`` runs serially in-process and ``>1`` fans
        out over the node backend's process pool.
    backend:
        Execution backend: ``"serial"``, ``"thread"``, ``"node"``,
        ``"auto"``, or a :class:`repro.exec.ExecutionBackend` instance.
        Fleets with fewer than two trajectories always collapse to serial.
    on_error:
        ``"raise"`` (default) raises :class:`FleetExecutionError` after the
        whole fleet has been attempted; ``"collect"`` records failures in
        :attr:`FleetResult.errors` and keeps going.
    sink_factory:
        Optional ``trajectory_id -> sink`` callable (the same
        :class:`~repro.streaming.sinks.SegmentSink` seam the hub uses, e.g.
        ``Store.sink_factory(...)``).  After the fleet completes, every
        successful representation's segments are routed — in input order —
        into a sink created for its trajectory (falling back to
        ``"trajectory-<index>"`` for unnamed trajectories), then the sink is
        flushed and closed.  Runs in the caller's process, outside the
        timed compression phase; a raising sink propagates to the caller.

    Notes
    -----
    Registered algorithms travel to worker processes by name and are
    re-resolved there.  On platforms whose multiprocessing start method is
    ``spawn`` (macOS, Windows), algorithms registered at runtime in the
    parent are therefore only visible to workers when the registration
    happens at import time of some module the workers also import; on Linux
    (``fork``) runtime registrations carry over.  Unregistered ad-hoc
    descriptors are shipped whole (their callables must be picklable for
    the node backend).  A task that kills its worker process (a crash,
    ``os._exit``, an OOM kill) is not isolated: the run raises
    :class:`~repro.exceptions.ExecutionError`.
    """
    descriptor = get_descriptor(algorithm)
    # Materialised once: the error path maps outcome indices back to their
    # trajectories, which must work for generator inputs too.
    trajectories = list(trajectories)
    opts = dict(opts or {})
    descriptor.validate_kwargs(opts)
    if workers < 1:
        raise InvalidParameterError(f"workers must be at least 1, got {workers}")
    if on_error not in _ON_ERROR_MODES:
        raise InvalidParameterError(
            f"on_error must be one of {_ON_ERROR_MODES}, got {on_error!r}"
        )
    executor = resolve_backend(backend, workers=workers)

    # Registered algorithms travel by name (cheap, spawn-safe); ad-hoc
    # descriptors that were never registered travel whole.
    try:
        spec = descriptor.name if get_descriptor(descriptor.name) is descriptor else descriptor
    except UnknownAlgorithmError:
        spec = descriptor
    tasks = [
        (trajectory, spec, epsilon, opts) for trajectory in trajectories
    ]
    if len(tasks) < 2 and executor.name != "serial":
        executor = SerialBackend()
    started = time.perf_counter()
    outcomes = executor.map_isolated(_compress_task, tasks)
    elapsed = time.perf_counter() - started

    representations: list[PiecewiseRepresentation | None] = [None] * len(tasks)
    errors: list[FleetError] = []
    for outcome in outcomes:
        if outcome.ok:
            representations[outcome.index] = outcome.value
        else:
            trajectory = trajectories[outcome.index]
            errors.append(
                FleetError(
                    index=outcome.index,
                    trajectory_id=getattr(trajectory, "trajectory_id", "") or "",
                    error_type=outcome.failure.error_type,
                    message=outcome.failure.message,
                    exception=outcome.failure.exception,
                    traceback=outcome.failure.traceback,
                )
            )
    result = FleetResult(
        algorithm=descriptor.name,
        epsilon=epsilon,
        workers=executor.effective_workers(len(tasks)),
        seconds=elapsed,
        representations=representations,
        errors=errors,
        backend=executor.name,
    )
    if sink_factory is not None:
        _route_to_sinks(sink_factory, trajectories, representations)
    if on_error == "raise":
        result.raise_if_failed()
    return result


def _route_to_sinks(
    sink_factory: Callable[[str], SegmentSink],
    trajectories: list[Trajectory],
    representations: list[PiecewiseRepresentation | None],
) -> None:
    """Persist each successful representation through its own sink.

    Mirrors the hub's sink seam for batch fleets: one sink per trajectory,
    segments delivered in order, flush + close when that trajectory is
    done.  Failed trajectories have no representation and get no sink.
    """
    for index, representation in enumerate(representations):
        if representation is None:
            continue
        trajectory_id = (
            getattr(trajectories[index], "trajectory_id", "") or f"trajectory-{index}"
        )
        sink = sink_factory(trajectory_id)
        if not isinstance(sink, SegmentSink):
            raise InvalidParameterError(
                f"sink_factory returned a {type(sink).__name__} for trajectory "
                f"{trajectory_id!r}, which does not satisfy the SegmentSink "
                f"protocol (an accept(segment) method)"
            )
        try:
            for segment in representation.segments:
                sink.accept(segment)
            flush_sink(sink)
        finally:
            close_sink(sink)
