"""Patch-point computation for OPERB-A (paper Section 5.1).

An *anomalous* line segment represents only its own two endpoints.  When an
anomalous segment ``R_i`` sits between two segments ``R_{i-1}`` and
``R_{i+1}``, OPERB-A tries to replace the three segments' shared corner with a
single interpolated *patch point* ``G`` — the intersection of the lines
carrying ``R_{i-1}`` and ``R_{i+1}`` — subject to three practical
restrictions:

1. ``G`` lies on both lines, forward of ``R_{i-1}``'s start and behind
   ``R_{i+1}``'s start;
2. ``|Ps G| >= |Ps Pe| - zeta / 2`` where ``Ps``/``Pe`` are the endpoints of
   ``R_{i-1}`` (the patch point may retreat by at most half the error bound);
3. the direction change from ``R_{i-1}`` to ``R_{i+1}`` is at most
   ``pi - gamma_m`` (no near-U-turns), with ``gamma_m = pi / 3`` by default.

Patching never changes the line of any segment, so OPERB-A inherits OPERB's
error bound unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry.angles import angle_of, normalize_signed_angle
from ..geometry.intersection import intersect_lines
from ..geometry.point import Point
from ..trajectory.piecewise import SegmentRecord

__all__ = ["PatchDecision", "compute_patch_point", "turn_angle_between"]


@dataclass(frozen=True, slots=True)
class PatchDecision:
    """The result of a patch attempt.

    Attributes
    ----------
    patch_point:
        The interpolated point ``G`` when patching is possible, else ``None``.
    reason:
        A short machine-readable explanation when patching was rejected
        (useful for diagnostics and for the gamma-sweep experiment).
    """

    patch_point: Point | None
    reason: str = ""

    @property
    def accepted(self) -> bool:
        """Whether a patch point was produced."""
        return self.patch_point is not None


def turn_angle_between(previous: SegmentRecord, following: SegmentRecord) -> float:
    """Absolute direction change between two segments, in ``[0, pi]``."""
    theta_prev = angle_of(previous.end.x - previous.start.x, previous.end.y - previous.start.y)
    theta_next = angle_of(following.end.x - following.start.x, following.end.y - following.start.y)
    return abs(normalize_signed_angle(theta_next - theta_prev))


def compute_patch_point(
    previous: SegmentRecord,
    following: SegmentRecord,
    *,
    epsilon: float,
    gamma_max: float,
) -> PatchDecision:
    """Try to compute the patch point between ``previous`` and ``following``.

    ``previous`` is the segment before the anomalous one (``R_{i-1}``) and
    ``following`` the segment after it (``R_{i+1}``).  The anomalous segment
    itself is implicit: its endpoints are ``previous.end`` and
    ``following.start``.
    """
    # Flattened onto float locals — it runs for every anomalous pair of the
    # stream — with the IEEE operations of ``SegmentRecord.length`` and
    # ``project_onto_direction``, in the same order.
    ps, pe, fs, fe = previous.start, previous.end, following.start, following.end
    previous_length = math.hypot(ps.x - pe.x, ps.y - pe.y)
    if previous_length == 0.0 or math.hypot(fs.x - fe.x, fs.y - fe.y) == 0.0:
        return PatchDecision(None, reason="degenerate-neighbour")

    theta_prev = angle_of(pe.x - ps.x, pe.y - ps.y)
    theta_next = angle_of(fe.x - fs.x, fe.y - fs.y)

    # Condition 3: the direction change must stay within pi - gamma_max.
    # This runs once per closed segment on the one-pass stream, so it stays
    # a scalar check; repro.geometry.kernels.angular_ranges_overlap is the
    # equivalent batched form for fleet-level analyses.
    if abs(normalize_signed_angle(theta_next - theta_prev)) > math.pi - gamma_max:
        return PatchDecision(None, reason="turn-angle")

    intersection = intersect_lines(ps, pe, fs, fe)
    if intersection is None:
        return PatchDecision(None, reason="parallel-lines")
    gx, gy = intersection.x, intersection.y

    # Condition 1a: G lies forward of previous.start along previous' direction.
    forward_on_previous = (gx - ps.x) * math.cos(theta_prev) + (gy - ps.y) * math.sin(theta_prev)
    if forward_on_previous < 0.0:
        return PatchDecision(None, reason="behind-previous-start")

    # Condition 1b: following.start lies forward of G along following's
    # direction (so G -> following.start -> following.end are collinear and
    # ordered, i.e. G sits on the backward extension of the following segment).
    if (fs.x - gx) * math.cos(theta_next) + (fs.y - gy) * math.sin(theta_next) < -1e-9:
        return PatchDecision(None, reason="beyond-following-start")

    # Condition 2: |Ps G| >= |Ps Pe| - zeta / 2.
    if forward_on_previous < previous_length - 0.5 * epsilon:
        return PatchDecision(None, reason="retreats-too-far")

    return PatchDecision(Point(gx, gy, 0.5 * (pe.t + fs.t)))

