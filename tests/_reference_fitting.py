"""Frozen reference copy of the fitting function ``F`` (test oracle only).

This is the helper-per-step ``FittingState`` that the flattened
:class:`repro.core.fitting.FittingState` replaced, kept verbatim so the
differential tests in ``test_core_fitting.py`` can check that every outcome,
every slot and every counter of the production state still matches it after
each fix.  Nothing in the library imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.fitting import PointOutcome
from repro.geometry.angles import normalize_angle
from repro.geometry.kernels import (
    anchored_ped_point,
    radial_length_point,
    rotation_sign_components,
)
from repro.geometry.point import Point, decode_point, encode_point

__all__ = ["ReferenceFittingState"]


def zone_index(r_len: float, epsilon: float) -> int:
    """Zone index ``j = ceil(2 |R| / zeta - 0.5)`` of a point at distance ``|R|``.

    Zone ``Z_j`` contains the points whose distance to the anchor lies in
    ``(j zeta/2 - zeta/4, j zeta/2 + zeta/4]``.
    """
    j = math.ceil(2.0 * r_len / epsilon - 0.5)
    return max(0, j)


@dataclass
class FittingStatistics:
    """Counters describing how a fitting state processed its points."""

    points_observed: int = 0
    active_points: int = 0
    inactive_points: int = 0
    violations: int = 0
    distance_computations: int = 0


class ReferenceFittingState:
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
        "last_active_point",
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
        self.anchor = anchor
        self.config = config
        self.length = 0.0
        self.theta = 0.0
        self.has_direction = False
        self.last_active_point: Point | None = None
        self.last_active_theta = 0.0
        self.last_active_zone = 0
        self.d_plus_max = 0.0
        self.d_minus_max = 0.0
        self.stats = FittingStatistics()

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
    def from_snapshot(cls, payload: dict, config) -> "ReferenceFittingState":
        """Rebuild a fitting state from :meth:`snapshot` output."""
        state = cls(Point(*payload["anchor"]), config)
        state.length = float(payload["length"])
        state.theta = float(payload["theta"])
        state.has_direction = bool(payload["has_direction"])
        state.last_active_point = decode_point(payload["last_active_point"])
        state.last_active_theta = float(payload["last_active_theta"])
        state.last_active_zone = int(payload["last_active_zone"])
        state.d_plus_max = float(payload["d_plus_max"])
        state.d_minus_max = float(payload["d_minus_max"])
        state.stats = FittingStatistics(**payload["stats"])
        return state

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    def _distance_to_fitted_line(self, point: Point) -> float:
        """Distance from ``point`` to the line through the anchor along ``theta``.

        Routed through the scalar anchored-PED kernel — the streaming
        one-point path stays scalar by construction (O(1) state, one point
        at a time), independent of the kernel backend flag.
        """
        self.stats.distance_computations += 1
        return anchored_ped_point(
            point.x, point.y, self.anchor.x, self.anchor.y, self.theta
        )

    def _distance_to_last_active_line(self, point: Point) -> float:
        """Distance from ``point`` to the line anchor -> last active point (``R_a``)."""
        self.stats.distance_computations += 1
        return anchored_ped_point(
            point.x, point.y, self.anchor.x, self.anchor.y, self.last_active_theta
        )

    def _deviation_acceptable(self, deviation: float, sign: int) -> bool:
        """Check the per-point deviation budget (plain or optimisation 2)."""
        if self.config.opt_two_sided_deviation:
            plus = self.d_plus_max
            minus = self.d_minus_max
            if sign > 0:
                plus = max(plus, deviation)
            else:
                minus = max(minus, deviation)
            return plus + minus <= self.config.epsilon
        return deviation <= self.config.half_epsilon

    def _record_deviation(self, deviation: float, sign: int) -> None:
        """Update the running one-sided maxima used by optimisations 2 and 3."""
        if sign > 0:
            if deviation > self.d_plus_max:
                self.d_plus_max = deviation
        else:
            if deviation > self.d_minus_max:
                self.d_minus_max = deviation

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def observe(self, point: Point) -> PointOutcome:
        """Offer ``point`` to the fitting state and report the outcome.

        The point is examined exactly once; at most three scalar distance
        computations are performed, which is what gives OPERB its ``O(n)``
        time and ``O(1)`` space behaviour.

        The radial length uses ``sqrt(dx*dx + dy*dy)`` and the rotation sign
        is decided from the cross/dot components of the radial vector (see
        :func:`repro.geometry.kernels.rotation_sign_components`) rather than
        via ``hypot``/``atan2``: the block kernel
        :func:`repro.geometry.kernels.operb_fitting_prefix` performs the
        identical IEEE operations on whole arrays, so the batched ingest
        path reproduces these per-point decisions bit for bit.
        """
        self.stats.points_observed += 1
        dx = point.x - self.anchor.x
        dy = point.y - self.anchor.y
        r_len = radial_length_point(dx, dy)

        if not self.has_direction:
            # No active point yet: L is still the zero-length segment at Ps.
            if r_len > self.config.first_active_threshold:
                self._become_first_active(point, r_len, self._radial_direction(dx, dy))
                self.stats.active_points += 1
                return PointOutcome.ACTIVE
            # Every line through Ps is within r_len <= threshold <= zeta of P.
            self.stats.inactive_points += 1
            return PointOutcome.ABSORBED

        is_active = (r_len - self.length) > self.config.quarter_epsilon
        cos_t = math.cos(self.theta)
        sin_t = math.sin(self.theta)
        cross = cos_t * dy - sin_t * dx
        deviation = abs(cross)
        self.stats.distance_computations += 1
        sign = rotation_sign_components(
            cross, cos_t * dx + sin_t * dy, dx, dy, self.theta
        )

        if not is_active:
            if not self._deviation_acceptable(deviation, sign):
                self.stats.violations += 1
                return PointOutcome.VIOLATION
            if self._distance_to_last_active_line(point) > self.config.epsilon:
                self.stats.violations += 1
                return PointOutcome.VIOLATION
            self._record_deviation(deviation, sign)
            self.stats.inactive_points += 1
            return PointOutcome.ABSORBED

        if not self._deviation_acceptable(deviation, sign):
            self.stats.violations += 1
            return PointOutcome.VIOLATION
        self._record_deviation(deviation, sign)
        self._advance_active(point, r_len, self._radial_direction(dx, dy), deviation, sign)
        self.stats.active_points += 1
        return PointOutcome.ACTIVE

    @staticmethod
    def _radial_direction(dx: float, dy: float) -> float:
        """Direction of the radial vector in ``[0, 2*pi)`` (zero vector -> 0).

        Only active points need the actual angle (for the rotation update);
        absorbed points are classified without ``atan2``, which is what the
        block kernels vectorize.
        """
        r_theta = math.atan2(dy, dx) if (dx != 0.0 or dy != 0.0) else 0.0
        if r_theta < 0.0:
            r_theta += 2.0 * math.pi
        return r_theta

    # ------------------------------------------------------------------ #
    # Fitting function cases
    # ------------------------------------------------------------------ #
    def _become_first_active(self, point: Point, r_len: float, r_theta: float) -> None:
        """Case 2 of ``F``: the first active point fixes the initial direction."""
        j = max(1, zone_index(r_len, self.config.epsilon))
        self.length = j * self.config.half_epsilon
        self.theta = r_theta
        self.has_direction = True
        self.last_active_point = point
        self.last_active_theta = r_theta
        self.last_active_zone = j

    def _advance_active(
        self, point: Point, r_len: float, r_theta: float, deviation: float, sign: int
    ) -> None:
        """Case 3 of ``F``: rotate ``L`` towards the new active point.

        The rotation is ``arcsin(d / (j zeta/2)) / j`` in the raw algorithm;
        optimisation 3 may substitute the running one-sided maximum deviation
        (never rotating further than ``arcsin(d / (j zeta/2))``), and
        optimisation 4 multiplies by the number of zones skipped since the
        previous active point.
        """
        j = max(1, zone_index(r_len, self.config.epsilon))
        half_len = j * self.config.half_epsilon

        if self.config.opt_missing_zone_compensation:
            delta_zones = max(1, j - self.last_active_zone)
        else:
            delta_zones = 1

        if self.config.opt_aggressive_rotation:
            side_max = self.d_plus_max if sign > 0 else self.d_minus_max
            rotation_deviation = max(deviation, side_max)
        else:
            rotation_deviation = deviation

        ratio = min(1.0, rotation_deviation / half_len)
        base_ratio = min(1.0, deviation / half_len)
        rotation = math.asin(ratio) * (delta_zones / j)
        # Optimisation 3's cap: never rotate past the undivided arcsin of the
        # actual deviation of the current point.
        rotation = min(rotation, math.asin(base_ratio))

        self.theta = normalize_angle(self.theta + sign * rotation)
        self.length = half_len
        self.last_active_point = point
        self.last_active_theta = r_theta
        self.last_active_zone = j
