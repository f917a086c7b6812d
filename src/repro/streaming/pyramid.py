"""Single-pass epsilon pyramid: one stream, every resolution level.

Serving the same device stream at several error bounds (map zoom levels,
replay tools, analytics dashboards) naively costs one full simplification
pass per epsilon.  Error-bound nesting makes that waste avoidable: a
coarser level can be maintained by re-simplifying the *finer level's
segment output* — O(segments) work instead of O(points) — while still
honouring its own bound against the raw stream.

:class:`PyramidSession` wraps one finest-level
:class:`~repro.api.StreamSession` (level 0, byte-identical to a direct
single-epsilon run) and cascades every segment it emits into ``k - 1``
coarser simplifiers in the same pass.  Level ``i`` is opened with the
*cascade bound* ``epsilons[i] - epsilons[i-1]``: its input vertices are the
level ``i-1`` polyline, which already deviates from the raw stream by at
most ``epsilons[i-1]``, so by the triangle inequality (exact for SED, whose
deviation against an affine-in-``t`` chord is maximised at the input
vertices) the level ``i`` output deviates from the raw stream by at most
``epsilons[i]``.  Strictly ascending epsilons keep every cascade bound
positive.

The cascade consumes segments through the ``push_segment`` re-ingest hook
(the ``pyramid`` capability flag; RPA002 machine-checks that advertised
algorithms define it).  The session tracks, per coarse level, the last
endpoint it forwarded: a segment whose start does not continue the previous
tail (the stream's first segment, or a patched joint) is re-ingested with
``include_start=True`` so no vertex is lost.

The triangle inequality, however, is only exact at the re-ingested
*vertices*: the coarse simplifier guarantees each input vertex lies within
the cascade bound of the line of its covering output segment, and because
point-to-line distance is affine along a chord, a whole fed chord is within
the bound whenever *both* of its endpoints sit within it of one output
line.  A chord that straddles two coverage ranges — OPERB-A's aggressive
patching, for example, can finalise adjacent segments whose covered ranges
share no vertex — has no such single line, and its interior (where raw
points project) can escape the bound.  Each level therefore runs a
**certify-or-fallback verifier** (:class:`_CascadeVerifier`): every fed
chord must be certified against one emitted coarse line (both endpoints
within the cascade bound); a chord no line certifies by the time the
coarse output has moved past it survives into the level's output verbatim.
The fallback is always sound — a finer segment deviates from the raw
stream by at most the finer epsilon — and the decisions depend only on the
fed-chord and emission sequences (never on push/block interleaving), so
block splits keep every level byte-identical.

Coarse emissions are buffered per level and drained with
:meth:`PyramidSession.drain_levels` — the hub drains after every routed
push and tags the result as ``("level_segments", device_id, level, ...)``
events, keeping the finest-level hot path untouched.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from ..api.session import Simplifier, StreamSession, open_raw_stream
from ..exceptions import InvalidParameterError, SimplificationError
from ..geometry.point import Point, encode_point
from ..trajectory.piecewise import SegmentRecord
from ..trajectory.soa import PointBlock

__all__ = ["PyramidSession", "validate_epsilon_ladder"]

_BLOCK_FEED_MIN = 16
"""Cascade batches at least this long ride the vectorized ``push_block``
path of the cascade simplifier instead of per-segment ``push_segment``
(identical output either way — block boundaries are an execution choice);
below it, packing an SoA block costs more than it saves."""

_VERIFY_LINES = 64
"""How many recent coarse output lines a level's verifier keeps as
certification candidates.  A chord is almost always certified by the line
covering it (the first or second candidate tried); the window only needs to
be deep enough to still hold that line when the chord's verdict falls due,
one emission later."""


class _CascadeVerifier:
    """Certify-or-fallback guard for one cascaded level (module docstring).

    ``register`` records every chord fed to the level's coarse simplifier
    (with its position in the simplifier's input indexing); ``admit`` runs
    the coarse emissions through the verdict rule — a chord the output has
    moved past must have both endpoints within the cascade bound of one
    recently emitted line, or the chord itself is spliced into the output
    as a fallback segment, just before the emission that passed it.
    ``flush`` settles the chords still pending at finish.
    """

    # Not snapshot state (RPA001): the cascade bound (and the tolerance
    # derived from it) is configuration the restoring side re-supplies via
    # the ladder; only the chord/line progress below is stream state.
    _SNAPSHOT_EXCLUDE = frozenset({"epsilon", "_tolerance"})

    def __init__(self, epsilon: float) -> None:
        self.epsilon = epsilon
        # Same slack as metrics.check_error_bound: a coarse fit sitting
        # exactly on its guarantee must certify, not spuriously fall back.
        self._tolerance = epsilon * (1.0 + 1e-9) + 1e-9
        self._pushed = 0
        self._pending: list[tuple[SegmentRecord, int]] = []
        self._lines: list[tuple[float, float, float, float]] = []

    def register(self, segment: SegmentRecord, include_start: bool) -> None:
        """Record one fed chord; ``include_start`` mirrors the feed call."""
        self._pushed += 2 if include_start else 1
        self._pending.append((segment, self._pushed - 1))

    def _certified(self, segment: SegmentRecord) -> bool:
        """Whether both chord endpoints lie within the bound of one recent line."""
        sx, sy = segment.start.x, segment.start.y
        ex, ey = segment.end.x, segment.end.y
        tol = self._tolerance
        for ax, ay, bx, by in reversed(self._lines):
            dx = bx - ax
            dy = by - ay
            norm = math.hypot(dx, dy)
            if norm == 0.0:
                if math.hypot(sx - ax, sy - ay) <= tol and math.hypot(ex - ax, ey - ay) <= tol:
                    return True
            elif (
                abs((sx - ax) * dy - (sy - ay) * dx) / norm <= tol
                and abs((ex - ax) * dy - (ey - ay) * dx) / norm <= tol
            ):
                return True
        return False

    def admit(self, emissions: list[SegmentRecord]) -> list[SegmentRecord]:
        """Interleave fallback chords into the level's emissions, in order."""
        out: list[SegmentRecord] = []
        lines = self._lines
        pending = self._pending
        for record in emissions:
            lines.append((record.start.x, record.start.y, record.end.x, record.end.y))
            if len(lines) > _VERIFY_LINES:
                del lines[0]
            # Chords are registered in feed order, so their end indices
            # ascend and the ones this emission moved past form a prefix.
            due = 0
            while due < len(pending) and pending[due][1] <= record.first_index:
                if not self._certified(pending[due][0]):
                    out.append(pending[due][0])
                due += 1
            del pending[:due]
            out.append(record)
        return out

    def flush(self) -> list[SegmentRecord]:
        """Settle the chords the coarse output never moved past."""
        fallbacks = [
            segment for segment, _ in self._pending if not self._certified(segment)
        ]
        self._pending = []
        return fallbacks

    def snapshot(self) -> dict:
        return {
            "pushed": self._pushed,
            "pending": [
                [segment.to_dict(), end_index]
                for segment, end_index in self._pending
            ],
            "lines": [list(line) for line in self._lines],
        }

    def restore(self, state: dict) -> None:
        self._pushed = int(state["pushed"])
        self._pending = [
            (SegmentRecord.from_dict(entry), int(end_index))
            for entry, end_index in state["pending"]
        ]
        self._lines = [
            (float(ax), float(ay), float(bx), float(by))
            for ax, ay, bx, by in state["lines"]
        ]


def validate_epsilon_ladder(epsilons: Sequence[float]) -> tuple[float, ...]:
    """Validate a pyramid's error-bound ladder.

    Returns the ladder as a float tuple, finest (smallest) level first.

    Raises
    ------
    InvalidParameterError
        Unless every bound is a positive finite number and the sequence is
        strictly ascending (equal levels would be redundant; a descending
        ladder would make a cascade bound non-positive).
    """
    try:
        ladder = tuple(float(epsilon) for epsilon in epsilons)
    except (TypeError, ValueError) as error:
        raise InvalidParameterError(
            f"epsilons must be a sequence of positive finite numbers, "
            f"got {epsilons!r}"
        ) from error
    if not ladder:
        raise InvalidParameterError("epsilons must name at least one level")
    for epsilon in ladder:
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise InvalidParameterError(
                f"every pyramid epsilon must be a positive finite number, "
                f"got {epsilon!r}"
            )
    for finer, coarser in zip(ladder, ladder[1:]):
        if coarser <= finer:
            raise InvalidParameterError(
                f"pyramid epsilons must be strictly ascending, "
                f"got {finer!r} before {coarser!r}"
            )
    return ladder


class PyramidSession:
    """One device's epsilon pyramid: a finest stream plus cascaded levels.

    Parameters
    ----------
    simplifier:
        The configured :class:`~repro.api.Simplifier` (algorithm, finest
        epsilon, options).  Its epsilon must equal ``epsilons[0]`` and its
        algorithm must be pyramid capable
        (:attr:`~repro.api.AlgorithmDescriptor.pyramid_capable`).
    epsilons:
        The strictly ascending error-bound ladder; ``epsilons[0]`` is the
        finest level, served byte-identically to a plain single-epsilon
        stream session.

    Level 0 ingest (:meth:`push` / :meth:`iter_block` / :meth:`finish`)
    mirrors :class:`~repro.api.StreamSession` exactly — same return values,
    same lifecycle errors — so callers written for a single-epsilon session
    keep working; the coarse levels ride along invisibly until
    :meth:`drain_levels` is called.
    """

    # Not snapshot state (RPA001): the simplifier is the immutable
    # configuration the restoring side supplies (the ladder itself is
    # checkpointed, via ``epsilons``, to detect configuration mismatches).
    _SNAPSHOT_EXCLUDE = frozenset({"simplifier"})

    def __init__(self, simplifier: Simplifier, epsilons: Sequence[float]) -> None:
        ladder = validate_epsilon_ladder(epsilons)
        if simplifier.epsilon != ladder[0]:
            raise InvalidParameterError(
                f"the simplifier's epsilon ({simplifier.epsilon!r}) must equal "
                f"the finest pyramid level ({ladder[0]!r})"
            )
        if len(ladder) > 1 and not simplifier.descriptor.pyramid_capable:
            raise InvalidParameterError(
                f"algorithm {simplifier.algorithm!r} is not pyramid capable: "
                f"re-ingesting its segment endpoints does not preserve the "
                f"coarse error bound (see AlgorithmDescriptor.pyramid_capable)"
            )
        self.simplifier = simplifier
        self.epsilons = ladder
        # Level 0 is exactly a single-epsilon fire-and-forget session; its
        # segments, statistics and snapshots are byte-identical to a
        # pyramid-less run.
        self.base: StreamSession = simplifier.open_stream(keep_segments=False)
        # Level i >= 1 re-simplifies level i-1's output under the cascade
        # bound epsilons[i] - epsilons[i-1] (see the module docstring).
        self._cascades: list[object] = [
            open_raw_stream(
                simplifier.descriptor, coarser - finer, **simplifier.opts
            )
            for finer, coarser in zip(ladder, ladder[1:])
        ]
        self._primed = [False] * len(self._cascades)
        self._tails: list[Point | None] = [None] * len(self._cascades)
        self._pending: list[list[SegmentRecord]] = [[] for _ in self._cascades]
        # One certify-or-fallback guard per coarse level (module docstring):
        # the nesting bound is enforced chord by chord, not assumed.
        self._verify = [
            _CascadeVerifier(coarser - finer)
            for finer, coarser in zip(ladder, ladder[1:])
        ]
        self._finished = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def levels(self) -> int:
        """Number of pyramid levels (1 = a plain single-epsilon session)."""
        return len(self.epsilons)

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._finished

    @property
    def points_pushed(self) -> int:
        """Raw points pushed into the finest level."""
        return self.base.points_pushed

    # ------------------------------------------------------------------ #
    # The cascade
    # ------------------------------------------------------------------ #
    def _feed(self, start: int, segments: list[SegmentRecord]) -> None:
        """Propagate finalised segments from level ``start + 1`` downward."""
        for i in range(start, len(self._cascades)):
            if not segments:
                return
            cascade = self._cascades[i]
            verifier = self._verify[i]
            # A long batch (block ingest on the finest level) is packed
            # into one SoA block so the cascade runs its vectorized prefix
            # kernels over the endpoint stream instead of one Python push
            # per segment — the optimisation that keeps a k-level pyramid
            # well under k times the single-level cost.
            block_feed = len(segments) >= _BLOCK_FEED_MIN and hasattr(cascade, "push_block")
            points: list[Point] = []
            out: list[SegmentRecord] = []
            # The very first segment (or a joint the finer level patched
            # away from the previous tail) must contribute its start vertex
            # too; a continuing segment only adds its end.  Consecutive
            # segments usually share the joint object, so identity decides
            # before the coordinate comparison.
            tail = self._tails[i] if self._primed[i] else None
            push_segment = cascade.push_segment  # type: ignore[attr-defined]
            for segment in segments:
                head = segment.start
                include_start = tail is None or (head is not tail and head != tail)
                verifier.register(segment, include_start)
                tail = segment.end
                if not block_feed:
                    out.extend(push_segment(segment, include_start=include_start))
                    continue
                if include_start:
                    points.append(head)
                points.append(tail)
            self._primed[i] = True
            self._tails[i] = tail
            if block_feed:
                block = PointBlock.from_points(points)
                out = cascade.push_block(block)  # type: ignore[attr-defined]
            out = verifier.admit(out)
            if out:
                self._pending[i].extend(out)
            segments = out

    # ------------------------------------------------------------------ #
    # Level-0 ingest (mirrors StreamSession)
    # ------------------------------------------------------------------ #
    def push(self, point: Point) -> list[SegmentRecord]:
        """Feed one fix; returns the *finest-level* segments it finalised.

        Coarser levels are updated in the same call and buffered for
        :meth:`drain_levels`.
        """
        emitted = self.base.push(point)
        if emitted:
            self._feed(0, emitted)
        return emitted

    def feed(self, points: Iterable[Point]) -> list[SegmentRecord]:
        """Push many points; returns all finest-level segments emitted."""
        emitted: list[SegmentRecord] = []
        for point in points:
            emitted.extend(self.push(point))
        return emitted

    def iter_block(self, block) -> Iterator[tuple[int, list[SegmentRecord]]]:
        """Traced block ingest over the finest level (hub accounting form).

        Yields the base session's ``(count, segments)`` steps unchanged —
        so per-device lag accounting stays byte-identical to a
        single-epsilon session — cascading each step's emissions before it
        is yielded.
        """
        steps = self.base.iter_block(block)  # lifecycle errors raise eagerly
        return self._iter_block(steps)

    def _iter_block(
        self, steps: Iterator[tuple[int, list[SegmentRecord]]]
    ) -> Iterator[tuple[int, list[SegmentRecord]]]:
        # The cascade feed is deferred to block exhaustion: the whole
        # block's emissions go down as one batch, which is what lets
        # ``_feed`` take the vectorized path.  Identical cascade output —
        # the levels see the same segments in the same order — and no
        # visible reordering, because coarse segments only surface through
        # drain_levels() after the ingest call returns.  (A traced block
        # abandoned mid-iteration leaves the finest level mid-block too;
        # partial consumption is not part of the session protocol.)
        emitted: list[SegmentRecord] = []
        for count, segments in steps:
            if segments:
                emitted.extend(segments)
            yield count, segments
        if emitted:
            self._feed(0, emitted)

    def push_block(self, block) -> list[SegmentRecord]:
        """Feed a whole SoA block; returns the finest-level segments."""
        emitted: list[SegmentRecord] = []
        for _, segments in self.iter_block(block):
            emitted.extend(segments)
        return emitted

    def finish(self) -> list[SegmentRecord]:
        """Flush every level; returns the finest level's trailing segments.

        Each coarse level is flushed in order, its tail segments feeding
        the levels below it before they flush — so the deepest level sees
        its complete input.  Coarse tails land in the per-level buffers;
        drain them with :meth:`drain_levels` after finishing.
        """
        emitted = self.base.finish()
        if emitted:
            self._feed(0, emitted)
        for i, cascade in enumerate(self._cascades):
            tail = self._verify[i].admit(list(cascade.finish()))  # type: ignore[attr-defined]
            # Chords the coarse output never moved past get their verdict
            # now; uncertified ones survive into the level's output.
            tail.extend(self._verify[i].flush())
            if tail:
                self._pending[i].extend(tail)
                self._feed(i + 1, tail)
        self._finished = True
        return emitted

    # ------------------------------------------------------------------ #
    # Coarse-level output
    # ------------------------------------------------------------------ #
    def drain_levels(self) -> list[tuple[int, list[SegmentRecord]]]:
        """Pop the coarse segments buffered since the last drain.

        Returns ``(level, segments)`` pairs in ascending level order
        (levels with nothing pending are omitted; level 0 never appears —
        its segments are returned by the ingest calls directly).
        """
        drained: list[tuple[int, list[SegmentRecord]]] = []
        for i, pending in enumerate(self._pending):
            if pending:
                drained.append((i + 1, pending))
                self._pending[i] = []
        return drained

    # ------------------------------------------------------------------ #
    # Checkpoint protocol
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-serialisable state of every level (see :meth:`restore`).

        The finest level's entry is exactly the single-epsilon session's
        snapshot; the cascade state (per-level simplifier snapshots, primed
        flags, forwarded tails, undrained buffers) rides alongside it.
        """
        cascades: list[object] = []
        for cascade in self._cascades:
            raw_snapshot = getattr(cascade, "snapshot", None)
            if raw_snapshot is None:
                raise SimplificationError(
                    f"algorithm {self.simplifier.algorithm!r} streams but does "
                    f"not implement the snapshot()/restore() checkpoint protocol"
                )
            cascades.append(raw_snapshot())
        return {
            "epsilons": list(self.epsilons),
            "base": self.base.snapshot(),
            "cascades": cascades,
            "primed": list(self._primed),
            "tails": [
                None if tail is None else encode_point(tail) for tail in self._tails
            ],
            "pending": [
                [segment.to_dict() for segment in level] for level in self._pending
            ],
            "verify": [verifier.snapshot() for verifier in self._verify],
            "finished": self._finished,
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this (fresh) pyramid session.

        Continuing the restored stream yields byte-identical segments — at
        every level — to the uninterrupted run.
        """
        if self._finished or self.base.points_pushed or self.base.finished:
            raise SimplificationError(
                "restore() requires a fresh pyramid session"
            )
        stored = [float(epsilon) for epsilon in state["epsilons"]]
        if tuple(stored) != self.epsilons:
            raise SimplificationError(
                f"pyramid checkpoint was taken under epsilons {stored!r}; "
                f"this session is configured for {list(self.epsilons)!r}"
            )
        self.base = self.simplifier.restore_stream(state["base"])
        for cascade, sub_state in zip(self._cascades, state["cascades"]):
            raw_restore = getattr(cascade, "restore", None)
            if raw_restore is None:
                raise SimplificationError(
                    f"algorithm {self.simplifier.algorithm!r} streams but does "
                    f"not implement the snapshot()/restore() checkpoint protocol"
                )
            raw_restore(sub_state)
        self._primed = [bool(flag) for flag in state["primed"]]
        self._tails = [
            None if tail is None else Point(*tail) for tail in state["tails"]
        ]
        self._pending = [
            [SegmentRecord.from_dict(entry) for entry in level]
            for level in state["pending"]
        ]
        for verifier, sub_state in zip(self._verify, state["verify"]):
            verifier.restore(sub_state)
        self._finished = bool(state["finished"])
