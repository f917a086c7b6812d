"""OPERB-A — the aggressive one-pass simplifier with patch points (Section 5).

OPERB-A runs the OPERB engine underneath and post-processes its finalised
segments with the paper's *lazy output policy*: a segment is held back until
it is known whether the following segment is anomalous and, if so, whether
the anomaly can be removed by interpolating a patch point at the intersection
of the surrounding segment lines.  Because patching never changes the line of
any segment, OPERB-A keeps OPERB's error bound, one-pass behaviour and O(1)
space (the buffer holds at most two segments).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

from ..exceptions import SimplificationError
from ..geometry.point import Point
from ..trajectory.blocks import BlockIngestMixin
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import (
    PiecewiseRepresentation,
    SegmentCascadeMixin,
    SegmentRecord,
)
from .config import OperbAConfig, OperbConfig
from .operb import OPERBSimplifier, OperbStatistics
from .patching import compute_patch_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trajectory.soa import PointBlock

__all__ = ["OperbAStatistics", "OPERBASimplifier", "operb_a", "raw_operb_a"]


@dataclass
class OperbAStatistics:
    """Patch-related counters of an OPERB-A run."""

    anomalous_segments: int = 0
    patches_applied: int = 0
    patches_rejected: int = 0
    rejection_reasons: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if self.rejection_reasons is None:
            self.rejection_reasons = {}

    @property
    def patching_ratio(self) -> float:
        """``Np / Na`` — patched over encountered anomalous segments (Exp-4.1)."""
        if self.anomalous_segments == 0:
            return 0.0
        return self.patches_applied / self.anomalous_segments


class OPERBASimplifier(SegmentCascadeMixin, BlockIngestMixin):
    """Streaming OPERB-A simplifier.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.OperbAConfig`; use
        ``OperbAConfig.optimized(epsilon)`` for the paper's OPERB-A and
        ``OperbAConfig.raw(epsilon)`` for Raw-OPERB-A.
    """

    name = "operb-a"

    # Not snapshot state (RPA001): the config is immutable and supplied by
    # the restoring side.
    _SNAPSHOT_EXCLUDE = frozenset({"config"})

    def __init__(self, config: OperbAConfig) -> None:
        self.config = config
        self._engine = OPERBSimplifier(config.base)
        self._pending: list[SegmentRecord] = []
        self.stats = OperbAStatistics()
        self._finished = False

    # ------------------------------------------------------------------ #
    # Public streaming API
    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> float:
        """The error bound this simplifier enforces."""
        return self.config.epsilon

    @property
    def engine_stats(self) -> OperbStatistics:
        """Statistics of the underlying OPERB engine."""
        return self._engine.stats

    @property
    def is_finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._finished

    def push(self, point: Point) -> list[SegmentRecord]:
        """Feed the next trajectory point; return any finalised segments."""
        if self._finished:
            raise SimplificationError("push() called after finish()")
        emitted: list[SegmentRecord] = []
        for segment in self._engine.push(point):
            emitted.extend(self._accept(segment))
        return emitted

    def _block_steps(
        self, block: "PointBlock"
    ) -> Iterator[tuple[int, list[SegmentRecord]]]:
        """Block loop behind :meth:`push_block`.

        The OPERB engine underneath ingests the block through its vectorized
        fast path; every segment it finalises runs through the same lazy
        patching buffer as in per-point mode.
        """
        silent = 0
        steps = self._engine.push_block_steps(block)
        while True:
            try:
                count, segments = next(steps)
                emitted: list[SegmentRecord] = []
                for segment in segments:
                    emitted.extend(self._accept(segment))
            except StopIteration:
                break
            except BaseException:
                # Deliver the coalesced silent prefix before the failure
                # surfaces, so traced consumers account the ingested points
                # exactly as per-point routing would (the engine has already
                # delivered its own pending prefix the same way).
                if silent:
                    yield silent, []
                raise
            # The lazy buffer may hold everything back, turning an emitting
            # engine step into a silent one at this level.
            if emitted:
                yield silent + count, emitted
                silent = 0
            else:
                silent += count
        if silent:
            yield silent, []

    def finish(self) -> list[SegmentRecord]:
        """Flush the engine and the lazy buffer."""
        if self._finished:
            return []
        emitted: list[SegmentRecord] = []
        for segment in self._engine.finish():
            emitted.extend(self._accept(segment))
        emitted.extend(self._pending)
        self._pending = []
        self._finished = True
        return emitted

    def _is_fresh(self) -> bool:
        # No stream index of its own: the engine and the lazy buffer hold
        # the stream position.
        return not (
            self._finished or self._pending or self._engine.stats.points_processed
        )

    # ------------------------------------------------------------------ #
    # Checkpoint protocol
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-serialisable state: engine snapshot plus the lazy buffer."""
        stats = vars(self.stats).copy()
        stats["rejection_reasons"] = dict(stats["rejection_reasons"] or {})
        return {
            "engine": self._engine.snapshot(),
            "pending": [segment.to_dict() for segment in self._pending],
            "stats": stats,
            "finished": self._finished,
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this (fresh) simplifier instance."""
        if self._finished or self._pending or self._engine.stats.points_processed:
            raise SimplificationError("restore() requires a fresh simplifier instance")
        self._engine.restore(state["engine"])
        self._pending = [SegmentRecord.from_dict(entry) for entry in state["pending"]]
        self.stats = OperbAStatistics(**state["stats"])
        self._finished = bool(state["finished"])

    # ------------------------------------------------------------------ #
    # Lazy output policy
    # ------------------------------------------------------------------ #
    def _accept(self, segment: SegmentRecord) -> list[SegmentRecord]:
        """Run one finalised segment through the lazy buffer."""
        if segment.is_anomalous:
            self.stats.anomalous_segments += 1

        if not self._pending:
            self._pending = [segment]
            return []

        if len(self._pending) == 1:
            previous = self._pending[0]
            # A segment may only be patched away when no other point relies on
            # it for its error bound: it must represent exactly its own two
            # endpoints and must not have absorbed any trailing points.
            patchable = (
                segment.is_anomalous
                and segment.covered_last_index == segment.last_index
                and self.config.enable_patching
            )
            if patchable:
                # Hold both: the patch decision needs the *next* segment too.
                self._pending = [previous, segment]
                return []
            self._pending = [segment]
            return [previous]

        previous, anomalous = self._pending
        decision = compute_patch_point(
            previous, segment, epsilon=self.config.epsilon, gamma_max=self.config.gamma_max
        )
        if decision.accepted:
            patch = decision.patch_point
            assert patch is not None
            patched_previous = replace(previous, end=patch, patched_end=True)
            patched_next = replace(segment, start=patch, patched_start=True)
            self.stats.patches_applied += 1
            self._pending = [patched_next]
            return [patched_previous]

        self.stats.patches_rejected += 1
        assert self.stats.rejection_reasons is not None
        self.stats.rejection_reasons[decision.reason] = (
            self.stats.rejection_reasons.get(decision.reason, 0) + 1
        )
        self._pending = [segment]
        return [previous, anomalous]


def operb_a(
    trajectory: Trajectory,
    epsilon: float,
    *,
    gamma_max: float | None = None,
    config: OperbAConfig | None = None,
) -> PiecewiseRepresentation:
    """Simplify ``trajectory`` with OPERB-A (all optimisations + patching)."""
    if config is None:
        if gamma_max is None:
            config = OperbAConfig.optimized(epsilon)
        else:
            config = OperbAConfig.optimized(epsilon, gamma_max=gamma_max)
    return OPERBASimplifier(config).simplify(trajectory)


def raw_operb_a(
    trajectory: Trajectory, epsilon: float, *, gamma_max: float | None = None
) -> PiecewiseRepresentation:
    """Simplify ``trajectory`` with Raw-OPERB-A (no optimisations, patching on)."""
    base = OperbConfig.raw(epsilon)
    if gamma_max is None:
        config = OperbAConfig(base=base)
    else:
        config = OperbAConfig(base=base, gamma_max=gamma_max)
    representation = OPERBASimplifier(config).simplify(trajectory)
    representation.algorithm = "raw-operb-a"
    return representation
