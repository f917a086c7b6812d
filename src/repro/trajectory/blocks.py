"""The shared block-ingest loop behind every ``push_block_steps``.

The streaming simplifiers' batched ingest all follows one shape: *probe*
the head of the remaining block with a vectorized prefix kernel, bulk-apply
the absorbed run, replay the run-breaking fix through the exact scalar
step, and coalesce silent pushes into ``(count, segments)`` steps.  The
adaptive policy around it — exponential scalar backoff when probes are
unprofitable (see the ``BLOCK_*`` constants in
:mod:`repro.geometry.kernels`), backoff reset when a probe fills its
window, delivery of the pending silent prefix before a mid-block exception
surfaces — is algorithm-independent, so it lives here exactly once;
each simplifier contributes only its probe.

:class:`BlockIngestMixin` holds the protocol boilerplate around that loop —
``push_block``, the ``push_block_steps`` guard and the per-fix batch
``simplify`` — so the native streaming simplifiers write it only once.

The host contract is one scalar step over floats, ``_step(x, y, t)``: it
ingests the next fix and returns a fresh (possibly empty) list of the
segments that fix finalised.  ``push(point)`` checks ``finish()`` and
passes ``point.x, point.y, point.t`` to it; the block driver's replays
(from the block's columns) and ``simplify`` (from ``tolist()`` column
chunks) call it directly.  OPERB, OPERB-A and dead reckoning hold floats
and box only the fixes they keep; FBQS, whose window holds ``Point``s,
boxes every fix there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from ..exceptions import SimplificationError
from ..geometry import kernels
from .piecewise import PiecewiseRepresentation, SegmentRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import Trajectory
    from .soa import PointBlock

__all__ = ["BlockIngestMixin", "drive_block_steps"]


class BlockIngestMixin:
    """Block-ingest protocol and batch ``simplify`` for push/finish simplifiers.

    The host class supplies ``push``/``finish``, the float step
    ``_step(x, y, t)`` (see the module docstring), a ``name``, a
    ``_finished`` flag, an ``_index`` stream position (or its own
    :meth:`_is_fresh`) and ``_block_steps(block)`` — its traced block
    loop, usually :func:`drive_block_steps` around the simplifier's probe.  Defined here
    rather than in :mod:`repro.algorithms.base` for the same reason as
    :class:`~repro.trajectory.piecewise.SegmentCascadeMixin`: ``repro.core``
    simplifiers inherit it and must not import the ``algorithms`` package.
    """

    name: str
    _finished: bool
    _index: int

    def push_block(self, block: "PointBlock") -> list[SegmentRecord]:
        """Feed a whole SoA block of points; return the finalised segments.

        Byte-identical to pushing the block's points one at a time — same
        segments, same statistics, same ``snapshot()`` — but absorbed runs
        go through the vectorized prefix kernels instead of per-point
        Python (see the host's ``_block_steps``).
        """
        emitted: list[SegmentRecord] = []
        for _, segments in self.push_block_steps(block):
            emitted.extend(segments)
        return emitted

    def push_block_steps(
        self, block: "PointBlock"
    ) -> Iterator[tuple[int, list[SegmentRecord]]]:
        """Traced form of :meth:`push_block`: ``(count, segments)`` steps.

        Each step ingests ``count`` further points of the block; ``segments``
        are the ones finalised by the last of them (empty for bulk-absorbed
        runs).  Consumers that account per-push emission positions (the
        stream hub's lag counters) drive this instead of :meth:`push_block`.
        """
        if self._finished:
            raise SimplificationError("push() called after finish()")
        if len(block) == 0:
            return iter(())
        return self._block_steps(block)  # type: ignore[attr-defined]

    def _is_fresh(self) -> bool:
        """Whether no point has been pushed and ``finish()`` has not run."""
        return self._index < 0 and not self._finished

    def simplify(self, trajectory: "Trajectory") -> PiecewiseRepresentation:
        """Simplify a whole trajectory with this (fresh) simplifier instance."""
        if not self._is_fresh():
            raise SimplificationError("simplify() requires a fresh simplifier instance")
        step = self._step  # type: ignore[attr-defined]
        segments: list[SegmentRecord] = []
        for xs, ys, ts in trajectory.column_chunks():
            for x, y, t in zip(xs, ys, ts):
                emitted = step(x, y, t)
                if emitted:
                    segments.extend(emitted)
        segments.extend(self.finish())  # type: ignore[attr-defined]
        return PiecewiseRepresentation(
            segments=segments, source_size=len(trajectory), algorithm=self.name
        )


def drive_block_steps(
    simplifier: object,
    block: "PointBlock",
    probe: Callable[[int], tuple[int, bool, bool]],
) -> Iterator[tuple[int, list[SegmentRecord]]]:
    """Drive one block through a simplifier's probe/scalar machinery.

    ``probe(start)`` examines the block from ``start`` and returns
    ``(count, probed, filled)``:

    - ``count`` — points the probe bulk-ingested (the probe itself applies
      every state update a per-point loop would have made for them);
    - ``probed`` — whether a probe was attempted at all (False when the
      simplifier has no open state to probe against, e.g. before the first
      point; the next point then takes the scalar path without touching the
      backoff);
    - ``filled`` — whether the run covered the probe's whole window, in
      which case the stream is dense here and the driver immediately probes
      again from the new position.

    The driver owns the shared policy: the scalar-backoff budget (tracked
    on ``simplifier._probe_backoff`` so it survives across blocks), the
    run-breaking fixes' replay through the exact scalar ``_step`` (fed from
    the block's columns, never a ``Point``), and the
    coalescing of silent pushes into ``(count, segments)`` steps — each
    step means "``count`` further points were ingested and the last of them
    emitted ``segments``".  If a scalar step raises, the pending silent
    prefix is yielded first and the exception surfaces on the consumer's
    next resumption, so traced consumers (the hub's per-device accounting)
    count exactly the points ingested before the failure — matching
    per-point routing.
    """
    n = len(block)
    step = simplifier._step  # type: ignore[attr-defined]
    xs, ys, ts = block.xs, block.ys, block.ts
    i = 0
    silent = 0
    scalar_budget = 0
    stretch_start = stretch_stop = 0
    stretch_x: list[float] = []
    stretch_y: list[float] = []
    stretch_t: list[float] = []
    while i < n:
        if scalar_budget > 0:
            scalar_budget -= 1
        else:
            count, probed, filled = probe(i)
            if probed:
                if count:
                    silent += count
                    i += count
                    if filled:
                        # The whole window absorbed: keep the fast path hot
                        # and probe again from the new position.
                        simplifier._probe_backoff = 0
                        continue
                # The probe hit a run-breaking point.  Profitable runs keep
                # probing eagerly; stub runs mean the stream is currently
                # too sparse for array work, so back off to scalar pushes
                # with exponentially growing spacing (bounded overhead,
                # quick rediscovery of dense phases).
                if count >= kernels.BLOCK_MIN_RUN:
                    simplifier._probe_backoff = 0
                else:
                    simplifier._probe_backoff = min(
                        kernels.BLOCK_PROBE_BACKOFF_MAX,
                        max(kernels.BLOCK_MIN_RUN, 2 * simplifier._probe_backoff),
                    )
                    scalar_budget = simplifier._probe_backoff
        # The run-breaking fix (or a fix with no probe to run) takes the
        # exact scalar step, so every decision and statistic matches
        # per-fix ingest bit for bit.  A backoff stretch (this fix and the
        # budget after it) converts its columns to floats in one go.
        if i >= stretch_stop and scalar_budget:
            stretch_start, stretch_stop = i, min(n, i + scalar_budget + 1)
            stretch_x = xs[i:stretch_stop].tolist()
            stretch_y = ys[i:stretch_stop].tolist()
            stretch_t = ts[i:stretch_stop].tolist()
        try:
            if i < stretch_stop:
                k = i - stretch_start
                emitted = step(stretch_x[k], stretch_y[k], stretch_t[k])
            else:
                emitted = step(xs.item(i), ys.item(i), ts.item(i))
        except BaseException:
            if silent:
                yield silent, []
            raise
        i += 1
        if emitted:
            yield silent + 1, emitted
            silent = 0
        else:
            silent += 1
    if silent:
        yield silent, []
