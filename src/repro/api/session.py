"""Capability-aware session facade over the unified algorithm registry.

:class:`Simplifier` is the one public entry point for every execution mode:

>>> from repro.api import Simplifier
>>> session = Simplifier("operb", epsilon=40.0)
>>> compressed = session.run(trajectory)                 # batch
>>> with session.open_stream() as stream:                # streaming
...     for fix in gps_feed:
...         uplink(stream.push(fix))
>>> fleet = session.run_many(trajectories, workers=4)    # fleet scale

The session resolves its :class:`~repro.api.AlgorithmDescriptor` once,
validates options eagerly against the descriptor's capability flags, and
routes each mode accordingly: ``open_stream`` uses the native streaming
factory when the algorithm has one and transparently wraps batch-only
algorithms in a :class:`~repro.api.BufferedBatchAdapter`; ``run_many`` fans
the fleet out over a pluggable :mod:`repro.exec` backend (serial, thread
pool or process pool) with per-trajectory error isolation.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from ..algorithms.base import iter_block_steps
from ..exceptions import InvalidParameterError, SimplificationError
from ..geometry.point import Point
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import PiecewiseRepresentation, SegmentRecord
from ..trajectory.soa import PointBlock
from .adapters import BufferedBatchAdapter
from .descriptors import AlgorithmDescriptor, get_descriptor

__all__ = ["Simplifier", "StreamSession", "open_raw_stream"]


def open_raw_stream(
    descriptor: AlgorithmDescriptor, epsilon: float, **kwargs
) -> object:
    """Instantiate the raw push/finish simplifier for ``descriptor``.

    Natively streaming algorithms are instantiated through their factory;
    batch-only algorithms are wrapped in a :class:`BufferedBatchAdapter`.
    Keyword arguments are validated eagerly in both cases.
    """
    if descriptor.streaming:
        return descriptor.make_streaming(epsilon, **kwargs)
    return BufferedBatchAdapter(descriptor, epsilon, **kwargs)


class StreamSession:
    """One push/finish session over a raw streaming simplifier.

    Wraps either a native streaming simplifier or a
    :class:`BufferedBatchAdapter` behind one uniform interface, by default
    accumulates every emitted segment so :meth:`result` can build the final
    :class:`PiecewiseRepresentation`, and guards the session lifecycle
    (pushing after or finishing twice raises :class:`SimplificationError`).

    Pass ``keep_segments=False`` (via ``Simplifier.open_stream``) for
    fire-and-forget consumers that uplink each segment as it is emitted:
    the session then holds no segment history, preserving the O(1)-state
    property of the one-pass algorithms, and :meth:`result` is unavailable.

    Attributes of the underlying simplifier (``stats``, ``buffered_points``,
    ...) are reachable both through :attr:`native` and by plain attribute
    access on the session.
    """

    # Not snapshot state (RPA001): the descriptor and epsilon are the
    # immutable configuration ``restore_stream`` resolves by name.
    _SNAPSHOT_EXCLUDE = frozenset({"descriptor", "epsilon"})

    def __init__(
        self,
        descriptor: AlgorithmDescriptor,
        raw: object,
        epsilon: float,
        *,
        keep_segments: bool = True,
    ) -> None:
        self.descriptor = descriptor
        self.epsilon = epsilon
        self._raw = raw
        self._keep_segments = keep_segments
        self._segments: list[SegmentRecord] = []
        self._pushes = 0
        self._finished = False

    @property
    def algorithm(self) -> str:
        """Name of the algorithm driving this session."""
        return self.descriptor.name

    @property
    def native(self) -> object:
        """The underlying simplifier (native streaming or buffered adapter)."""
        return self._raw

    @property
    def buffering(self) -> bool:
        """True when a batch algorithm is being emulated via buffering."""
        return isinstance(self._raw, BufferedBatchAdapter)

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._finished

    @property
    def points_pushed(self) -> int:
        """Number of points pushed so far."""
        return self._pushes

    def push(self, point: Point) -> list[SegmentRecord]:
        """Feed one point; returns the segments finalised by this push."""
        if self._finished:
            raise SimplificationError(
                f"cannot push to a finished {self.algorithm!r} stream session"
            )
        self._pushes += 1
        emitted = self._raw.push(point)
        if self._keep_segments:
            self._segments.extend(emitted)
        return emitted

    def feed(self, points: Iterable[Point]) -> list[SegmentRecord]:
        """Push many points; returns all segments finalised along the way."""
        emitted: list[SegmentRecord] = []
        for point in points:
            emitted.extend(self.push(point))
        return emitted

    def push_block(self, block: PointBlock) -> list[SegmentRecord]:
        """Feed a whole SoA block of points; returns the finalised segments.

        Produces byte-identical segments (and session snapshots) to pushing
        the block's points one at a time — the block boundary is purely an
        execution choice.  Algorithms whose simplifier implements the native
        block protocol (``descriptor.batched``, or any batch-only algorithm
        behind the buffered adapter) run their vectorized fast path; others
        fall back to a correct per-point loop.  An empty block is a cheap
        no-op that touches no statistics.  The flattened form of
        :meth:`iter_block`.
        """
        emitted: list[SegmentRecord] = []
        for _, segments in self.iter_block(block):
            emitted.extend(segments)
        return emitted

    def push_segment(
        self, segment: SegmentRecord, *, include_start: bool = False
    ) -> list[SegmentRecord]:
        """Re-ingest a finer pyramid level's segment into this session.

        Pushes ``segment.start`` first when ``include_start`` is true, then
        ``segment.end`` — the epsilon-pyramid cascade's O(segments) ingest
        path.  Requires the ``pyramid`` capability (native simplifiers
        inheriting the re-ingest hook, or any buffered batch algorithm).
        """
        if self._finished:
            raise SimplificationError(
                f"cannot push to a finished {self.algorithm!r} stream session"
            )
        native = getattr(self._raw, "push_segment", None)
        if native is None:
            raise SimplificationError(
                f"algorithm {self.algorithm!r} does not implement the "
                f"push_segment re-ingest hook (pyramid capability)"
            )
        self._pushes += 2 if include_start else 1
        emitted = native(segment, include_start=include_start)
        if self._keep_segments:
            self._segments.extend(emitted)
        return emitted

    def iter_block(self, block: PointBlock) -> Iterator[tuple[int, list[SegmentRecord]]]:
        """Traced block ingest: yields ``(count, segments)`` steps.

        Each step ingests ``count`` further points, the last of which
        finalised ``segments`` (empty for silent runs).  This is the form
        the streaming hub drives so per-push accounting (lag, burst sizes)
        stays byte-identical to per-point ingest.
        """
        if self._finished:
            raise SimplificationError(
                f"cannot push to a finished {self.algorithm!r} stream session"
            )
        if len(block) == 0:
            return iter(())
        return self._iter_block(block)

    def _iter_block(self, block: PointBlock) -> Iterator[tuple[int, list[SegmentRecord]]]:
        for count, segments in iter_block_steps(self._raw, block):
            self._pushes += count
            if self._keep_segments and segments:
                self._segments.extend(segments)
            yield count, segments

    def finish(self) -> list[SegmentRecord]:
        """Flush the simplifier and close the session.

        Raises
        ------
        SimplificationError
            On a second call — a session represents exactly one stream.
        """
        if self._finished:
            raise SimplificationError(
                f"{self.algorithm!r} stream session was already finished"
            )
        self._finished = True
        emitted = list(self._raw.finish())
        if self._keep_segments:
            self._segments.extend(emitted)
        return emitted

    def snapshot(self) -> dict:
        """JSON-serialisable state of this session (see ``restore_stream``).

        Captures the session book-keeping (push count, lifecycle, retained
        segments) plus the underlying simplifier's own snapshot.  Resuming
        via :meth:`Simplifier.restore_stream` and continuing the stream
        produces byte-identical segments to an uninterrupted run.

        Raises
        ------
        SimplificationError
            When the underlying simplifier does not implement the
            ``snapshot()``/``restore()`` protocol (check
            ``descriptor.snapshot_capable`` beforehand).
        """
        raw_snapshot = getattr(self._raw, "snapshot", None)
        if raw_snapshot is None:
            raise SimplificationError(
                f"algorithm {self.algorithm!r} streams but does not implement the "
                f"snapshot()/restore() checkpoint protocol"
            )
        return {
            "pushes": self._pushes,
            "finished": self._finished,
            "keep_segments": self._keep_segments,
            "segments": [segment.to_dict() for segment in self._segments],
            "raw": raw_snapshot(),
        }

    def _restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` (fresh sessions only; internal)."""
        if self._pushes or self._finished or self._segments:
            raise SimplificationError("cannot restore into a used stream session")
        raw_restore = getattr(self._raw, "restore", None)
        if raw_restore is None:
            raise SimplificationError(
                f"algorithm {self.algorithm!r} streams but does not implement the "
                f"snapshot()/restore() checkpoint protocol"
            )
        self._pushes = int(state["pushes"])
        self._finished = bool(state["finished"])
        self._keep_segments = bool(state["keep_segments"])
        self._segments = [SegmentRecord.from_dict(entry) for entry in state["segments"]]
        raw_restore(state["raw"])

    def result(self, source_size: int | None = None) -> PiecewiseRepresentation:
        """The complete representation produced by this session.

        Finishes the session first if it is still open.  ``source_size``
        defaults to the number of pushed points.  Unavailable when the
        session was opened with ``keep_segments=False``.
        """
        if not self._keep_segments:
            raise SimplificationError(
                "this stream session was opened with keep_segments=False and "
                "holds no segment history; collect segments from push()/finish()"
            )
        if not self._finished:
            self.finish()
        size = self._pushes if source_size is None else source_size
        return PiecewiseRepresentation(
            segments=list(self._segments), source_size=size, algorithm=self.algorithm
        )

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._finished:
            self.finish()

    def __getattr__(self, name: str):
        # Delegate unknown attributes (stats, buffered_points, ...) to the
        # underlying simplifier.
        raw = object.__getattribute__(self, "_raw")
        return getattr(raw, name)


class Simplifier:
    """Session facade: one algorithm + epsilon + options, every execution mode.

    Parameters
    ----------
    algorithm:
        Registered algorithm name (or an :class:`AlgorithmDescriptor`).
    epsilon:
        The error bound ``zeta``.  Required (and validated as a positive
        finite number) for error-bounded algorithms; optional for algorithms
        with ``error_metric == "none"`` such as ``uniform``.
    **opts:
        Algorithm options.  Names unknown to the algorithm in *any* mode are
        rejected here at construction time; whether an option fits the
        chosen execution mode (``accepted_kwargs`` for batch,
        ``streaming_kwargs`` for streaming) is checked when that mode is
        entered, since a session serves both.
    """

    def __init__(
        self, algorithm: str | AlgorithmDescriptor = "operb", epsilon: float | None = None, **opts
    ) -> None:
        self.descriptor = get_descriptor(algorithm)
        if epsilon is None:
            if self.descriptor.error_bounded:
                raise InvalidParameterError(
                    f"algorithm {self.descriptor.name!r} is error bounded; "
                    f"an epsilon is required"
                )
            epsilon = 0.0
        elif self.descriptor.error_bounded and not (
            epsilon > 0.0 and math.isfinite(epsilon)
        ):
            raise InvalidParameterError(
                f"error bound epsilon must be a positive finite number, got {epsilon!r}"
            )
        self.epsilon = float(epsilon)
        known = set(self.descriptor.accepted_kwargs) | set(self.descriptor.streaming_kwargs or ())
        unknown = sorted(set(opts) - known)
        if unknown:
            accepted_text = ", ".join(sorted(known)) or "(none)"
            raise InvalidParameterError(
                f"algorithm {self.descriptor.name!r} does not accept option(s) "
                f"{', '.join(unknown)}; accepted: {accepted_text}"
            )
        self.opts = opts

    @property
    def algorithm(self) -> str:
        """Normalised name of the selected algorithm."""
        return self.descriptor.name

    def capabilities(self) -> dict[str, object]:
        """Capability flags of the selected algorithm."""
        return self.descriptor.capabilities()

    def run(self, trajectory: Trajectory) -> PiecewiseRepresentation:
        """Simplify one trajectory in batch mode."""
        return self.descriptor.run(trajectory, self.epsilon, **self.opts)

    def open_stream(self, *, keep_segments: bool = True) -> StreamSession:
        """Open a push/finish session.

        Uses the native streaming implementation when the algorithm has one;
        batch-only algorithms are transparently wrapped in a
        :class:`BufferedBatchAdapter` (which buffers the whole stream — the
        cost the paper's one-pass algorithms avoid).

        Sessions accept points one at a time (:meth:`StreamSession.push`)
        or as SoA blocks (:meth:`StreamSession.push_block`) — the batched
        form runs the vectorized block kernels for algorithms with the
        ``batched`` capability and is byte-identical to per-point ingest.

        ``keep_segments=False`` opens a fire-and-forget session that retains
        no segment history (O(1) session state for one-pass algorithms);
        :meth:`StreamSession.result` is then unavailable.
        """
        raw = open_raw_stream(self.descriptor, self.epsilon, **self.opts)
        return StreamSession(self.descriptor, raw, self.epsilon, keep_segments=keep_segments)

    def restore_stream(self, state: dict) -> StreamSession:
        """Reopen a stream session from a :meth:`StreamSession.snapshot`.

        A fresh raw simplifier is instantiated with this session's epsilon
        and options (which must match the ones the snapshot was taken under —
        the snapshot carries only state, not configuration) and the saved
        state is loaded into it.  Continuing the restored stream yields
        byte-identical segments to the uninterrupted run.
        """
        session = self.open_stream()
        session._restore(state)
        return session

    def run_many(
        self,
        trajectories: Sequence[Trajectory],
        *,
        workers: int = 1,
        backend: str = "auto",
        on_error: str = "raise",
        sink_factory=None,
    ):
        """Compress a fleet of trajectories, optionally in parallel.

        ``backend`` selects the :mod:`repro.exec` execution backend
        (``"serial"``, ``"thread"``, ``"node"``, or ``"auto"`` — serial
        for one worker, node otherwise).  ``sink_factory`` routes
        each successful trajectory's segments through a
        :class:`~repro.streaming.sinks.SegmentSink` (e.g.
        ``Store.sink_factory(...)`` to persist the fleet into a segment
        store).  See :func:`repro.api.executor.run_many` for the full
        contract; the returned :class:`~repro.api.FleetResult` keeps
        per-trajectory error isolation so one malformed trajectory cannot
        sink a fleet job, and records the backend and worker count actually
        used.
        """
        from .executor import run_many

        return run_many(
            self.descriptor,
            trajectories,
            self.epsilon,
            opts=self.opts,
            workers=workers,
            backend=backend,
            on_error=on_error,
            sink_factory=sink_factory,
        )

    def __repr__(self) -> str:
        opts = "".join(f", {key}={value!r}" for key, value in sorted(self.opts.items()))
        return f"Simplifier({self.algorithm!r}, epsilon={self.epsilon!r}{opts})"
