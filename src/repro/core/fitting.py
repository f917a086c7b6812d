"""The fitting function ``F`` and its per-segment state (paper Section 4.1).

For the sub-trajectory starting at the anchor ``Ps``, the fitting function
maintains a single directed line segment ``L = (Ps, |L|, L.theta)`` that fits
all previously processed points.  Each incoming point ``P`` is compared with
``L`` (and with the line to the last active point) exactly once, which is what
makes OPERB one-pass:

* **inactive points** — ``|R| - |L| <= zeta / 4`` — leave ``L`` unchanged
  (case 1 of ``F``) and only need a distance check;
* **active points** — the remaining points — move ``L`` into the zone
  ``Z_j`` with ``j = ceil(2 |R| / zeta - 0.5)`` and rotate it towards the
  point by ``arcsin(d / (j zeta / 2)) / j`` (cases 2 and 3 of ``F``).

The five optimisations of Section 4.4 plug into this state: the first-active
threshold (opt. 1), the two-sided deviation budget (opt. 2), the aggressive
rotation (opt. 3) and the missing-zone compensation (opt. 4).  Optimisation 5
lives in the OPERB driver because it concerns already-finalised segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..geometry.angles import TWO_PI, normalize_angle
from ..geometry.kernels import zero_vector_rotation_sign
from ..geometry.point import Point, encode_point

__all__ = ["PointOutcome", "FittingState", "zone_index", "rotation_sign"]


class PointOutcome(Enum):
    """What happened when a point was offered to the fitting state."""

    ABSORBED = "absorbed"
    """The point is inactive and representable by the current segment."""

    ACTIVE = "active"
    """The point became the segment's new last active point."""

    VIOLATION = "violation"
    """The point cannot be represented; the current segment must be closed."""


def zone_index(r_len: float, epsilon: float) -> int:
    """Zone index ``j = ceil(2 |R| / zeta - 0.5)`` of a point at distance ``|R|``.

    Zone ``Z_j`` contains the points whose distance to the anchor lies in
    ``(j zeta/2 - zeta/4, j zeta/2 + zeta/4]``.
    """
    j = math.ceil(2.0 * r_len / epsilon - 0.5)
    return max(0, j)


def rotation_sign(r_theta: float, line_theta: float) -> int:
    """The paper's sign function ``f(R_i, L_{i-1})``.

    Returns ``+1`` when the included angle ``R_i.theta - L_{i-1}.theta`` falls
    in ``(-2pi, -3pi/2] U [-pi, -pi/2] U [0, pi/2] U [pi, 3pi/2)`` and ``-1``
    otherwise.  Geometrically this rotates the fitted *line* towards the line
    through the anchor and the new point by the smaller of the two possible
    rotations.
    """
    delta = normalize_angle(r_theta) - normalize_angle(line_theta)
    delta = normalize_angle(delta)  # fold into [0, 2*pi)
    half_pi = 0.5 * math.pi
    if 0.0 <= delta <= half_pi or math.pi <= delta < 1.5 * math.pi:
        return 1
    return -1


@dataclass
class FittingStatistics:
    """Counters describing how a fitting state processed its points."""

    points_observed: int = 0
    active_points: int = 0
    inactive_points: int = 0
    violations: int = 0
    distance_computations: int = 0


class FittingState:
    """Mutable per-segment state of the fitting function ``F``.

    Parameters
    ----------
    anchor:
        The segment start point ``Ps``.
    config:
        The OPERB configuration (error bound and optimisation flags).
    """

    __slots__ = (
        "anchor",
        "config",
        "length",
        "theta",
        "has_direction",
        "last_active_x",
        "last_active_y",
        "last_active_t",
        "last_active_theta",
        "last_active_zone",
        "d_plus_max",
        "d_minus_max",
        "stats",
    )

    # Not snapshot state (RPA001): the config is immutable and supplied by
    # the restoring simplifier, which owns it.
    _SNAPSHOT_EXCLUDE = frozenset({"config"})

    def __init__(self, anchor: Point, config) -> None:
        self.config = config
        self.stats = FittingStatistics()
        self.reset(anchor)

    def reset(self, anchor: Point) -> None:
        """Start over at ``anchor``: a fresh state without the allocations."""
        self.anchor = anchor
        self.length = 0.0
        self.theta = 0.0
        # The last active fix R_a, held as floats; it exists exactly when
        # the segment has a direction (the first active fix sets both).
        self.has_direction = False
        self.last_active_x = 0.0
        self.last_active_y = 0.0
        self.last_active_t = 0.0
        self.last_active_theta = 0.0
        self.last_active_zone = 0
        self.d_plus_max = 0.0
        self.d_minus_max = 0.0
        stats = self.stats
        stats.points_observed = stats.active_points = stats.inactive_points = 0
        stats.violations = stats.distance_computations = 0

    @property
    def last_active_point(self) -> Point | None:
        """The last active fix ``R_a`` (``None`` before the first one)."""
        if not self.has_direction:
            return None
        return Point(self.last_active_x, self.last_active_y, self.last_active_t)

    # ------------------------------------------------------------------ #
    # Checkpoint protocol
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-serialisable state of the fitting function ``F``.

        The configuration is *not* part of the snapshot: a restored state is
        always rebuilt against the simplifier's own (identical) config, so a
        checkpoint never has to serialise optimisation flags.
        """
        return {
            "anchor": encode_point(self.anchor),
            "length": self.length,
            "theta": self.theta,
            "has_direction": self.has_direction,
            "last_active_point": encode_point(self.last_active_point),
            "last_active_theta": self.last_active_theta,
            "last_active_zone": self.last_active_zone,
            "d_plus_max": self.d_plus_max,
            "d_minus_max": self.d_minus_max,
            "stats": vars(self.stats).copy(),
        }

    @classmethod
    def from_snapshot(cls, payload: dict, config) -> "FittingState":
        """Rebuild a fitting state from :meth:`snapshot` output."""
        state = cls(Point(*payload["anchor"]), config)
        state.length = float(payload["length"])
        state.theta = float(payload["theta"])
        state.has_direction = bool(payload["has_direction"])
        last_active = payload["last_active_point"]
        if last_active is not None:
            state.last_active_x, state.last_active_y, state.last_active_t = last_active
        state.last_active_theta = float(payload["last_active_theta"])
        state.last_active_zone = int(payload["last_active_zone"])
        state.d_plus_max = float(payload["d_plus_max"])
        state.d_minus_max = float(payload["d_minus_max"])
        state.stats = FittingStatistics(**payload["stats"])
        return state

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def observe(self, x: float, y: float, t: float) -> PointOutcome:
        """Offer the fix ``(x, y, t)`` to the fitting state; report the outcome.

        The fix is examined exactly once; at most two scalar distance
        computations are performed (the fitted line and, for inactive points,
        the line to the last active point ``R_a``), which is what gives OPERB
        its ``O(n)`` time and ``O(1)`` space behaviour.  The method is one
        straight-line pass over floats, never a ``Point``: it runs once per
        fix on both the streaming and the batch path.

        The radial length uses ``sqrt(dx*dx + dy*dy)`` and the rotation sign
        is decided from the cross/dot components of the radial vector (see
        :func:`repro.geometry.kernels.rotation_sign_components`) rather than
        via ``hypot``/``atan2``: the block kernel
        :func:`repro.geometry.kernels.operb_fitting_prefix` performs the
        identical IEEE operations on whole arrays, so the batched ingest
        path reproduces these per-point decisions bit for bit.
        """
        config = self.config
        epsilon = config.epsilon
        stats = self.stats
        stats.points_observed += 1
        anchor = self.anchor
        dx = x - anchor.x
        dy = y - anchor.y
        r_len = math.sqrt(dx * dx + dy * dy)

        has_direction = self.has_direction
        if has_direction:
            theta = self.theta
            cos_t = math.cos(theta)
            sin_t = math.sin(theta)
            cross = cos_t * dy - sin_t * dx
            dot = cos_t * dx + sin_t * dy
            deviation = abs(cross)
            stats.distance_computations += 1
            # The paper's sign function f(R, L) from the cross/dot signs; a
            # zero radial vector has dot == 0, so its convention is only
            # consulted there.
            if dot > 0.0:
                positive = cross >= 0.0
            elif dot < 0.0:
                positive = cross <= 0.0
            elif dx == 0.0 and dy == 0.0:
                positive = zero_vector_rotation_sign(theta) > 0
            else:
                positive = cross > 0.0

            # Deviation budget: zeta/2 per point, or (optimisation 2) the two
            # running one-sided maxima together within zeta.
            d_plus = self.d_plus_max
            d_minus = self.d_minus_max
            if positive:
                if deviation > d_plus:
                    d_plus = deviation
            elif deviation > d_minus:
                d_minus = deviation
            if config.opt_two_sided_deviation:
                acceptable = d_plus + d_minus <= epsilon
            else:
                acceptable = deviation <= 0.5 * epsilon
            if not acceptable:
                stats.violations += 1
                return PointOutcome.VIOLATION

            # The activity tests are written as "> bound" so that a NaN
            # distance, like any other non-active one, stays inactive.
            if not r_len - self.length > 0.25 * epsilon:
                # Case 1 of F (inactive): L stays; P must also lie near the
                # line through the anchor and the last active point R_a.
                stats.distance_computations += 1
                last_theta = self.last_active_theta
                if abs(math.cos(last_theta) * dy - math.sin(last_theta) * dx) > epsilon:
                    stats.violations += 1
                    return PointOutcome.VIOLATION
                self.d_plus_max = d_plus
                self.d_minus_max = d_minus
                stats.inactive_points += 1
                return PointOutcome.ABSORBED
            self.d_plus_max = d_plus
            self.d_minus_max = d_minus
        elif not r_len > (epsilon if config.opt_first_active_threshold else 0.25 * epsilon):
            # No active point yet and every line through Ps is within
            # r_len <= threshold <= zeta of P: L stays the zero-length segment.
            stats.inactive_points += 1
            return PointOutcome.ABSORBED

        # P is active, so r_len > 0 and its direction is well defined.
        r_theta = math.atan2(dy, dx)
        if r_theta < 0.0:
            r_theta += 2.0 * math.pi
        # Conditionals instead of the min/max builtins (same values, NaN
        # included): this runs for most fixes of a moving stream.
        j = math.ceil(2.0 * r_len / epsilon - 0.5)
        if j < 1:
            j = 1
        half_len = j * (0.5 * epsilon)
        if has_direction:
            # Case 3 of F: rotate L towards P by arcsin(d / (j zeta/2)) / j.
            # Optimisation 3 substitutes the running one-sided maximum
            # deviation, capped at the undivided arcsin of P's own deviation;
            # optimisation 4 multiplies by the number of zones skipped since
            # the previous active point.
            delta_zones = j - self.last_active_zone
            if delta_zones < 1 or not config.opt_missing_zone_compensation:
                delta_zones = 1
            if config.opt_aggressive_rotation:
                # The one-sided maximum already includes P's own deviation.
                rotation_deviation = d_plus if positive else d_minus
            else:
                rotation_deviation = deviation
            ratio = rotation_deviation / half_len
            rotation = math.asin(ratio if ratio < 1.0 else 1.0) * (delta_zones / j)
            ratio = deviation / half_len
            cap = math.asin(ratio if ratio < 1.0 else 1.0)
            if cap < rotation:
                rotation = cap
            # normalize_angle, inlined: fold into [0, 2*pi).
            theta = math.fmod(theta + rotation if positive else theta - rotation, TWO_PI)
            if theta < 0.0:
                theta += TWO_PI
            if theta >= TWO_PI:
                theta -= TWO_PI
            self.theta = theta
        else:
            # Case 2 of F: the first active point fixes the initial direction.
            self.theta = r_theta
            self.has_direction = True
        self.length = half_len
        self.last_active_x = x
        self.last_active_y = y
        self.last_active_t = t
        self.last_active_theta = r_theta
        self.last_active_zone = j
        stats.active_points += 1
        return PointOutcome.ACTIVE
