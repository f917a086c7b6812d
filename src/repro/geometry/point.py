"""Point primitives.

A trajectory data point is a triple ``P(x, y, t)`` (Section 3.1 of the
paper): planar coordinates plus a timestamp.  The algorithms themselves only
need ``(x, y)``; the timestamp is carried along for synchronised-Euclidean
distance variants and for I/O round-trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Point", "encode_point", "decode_point"]


@dataclass(frozen=True, slots=True, init=False)
class Point:
    """An immutable trajectory data point.

    Attributes
    ----------
    x:
        Planar x coordinate (metres in the projected frame, or longitude if
        the caller works in raw degrees).
    y:
        Planar y coordinate (metres or latitude).
    t:
        Timestamp in seconds.  Defaults to ``0.0`` for purely spatial use.
    """

    x: float
    y: float
    t: float = 0.0

    def __init__(self, x: float, y: float, t: float = 0.0) -> None:
        # Every boxed fix and emitted endpoint runs this (see slot_setters).
        _set_x(self, x)
        _set_y(self, y)
        _set_t(self, t)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance between this point and ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def offset(self, dx: float, dy: float, dt: float = 0.0) -> "Point":
        """Return a new point translated by ``(dx, dy)`` and shifted in time."""
        return Point(self.x + dx, self.y + dy, self.t + dt)

    def with_time(self, t: float) -> "Point":
        """Return a copy of this point carrying a different timestamp."""
        return Point(self.x, self.y, t)

    def midpoint(self, other: "Point") -> "Point":
        """Midpoint of this point and ``other`` (timestamps averaged)."""
        return Point(
            0.5 * (self.x + other.x),
            0.5 * (self.y + other.y),
            0.5 * (self.t + other.t),
        )

    def is_finite(self) -> bool:
        """Whether all coordinates (and the timestamp) are finite numbers."""
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.t)

    def as_xy(self) -> tuple[float, float]:
        """The ``(x, y)`` pair, dropping the timestamp."""
        return (self.x, self.y)

    def as_xyt(self) -> tuple[float, float, float]:
        """The full ``(x, y, t)`` triple."""
        return (self.x, self.y, self.t)

    def __iter__(self) -> Iterator[float]:
        """Iterate as ``(x, y, t)`` so ``tuple(point)`` round-trips."""
        yield self.x
        yield self.y
        yield self.t


def slot_setters(cls: type, *names: str) -> tuple:
    """The slots' own setters of a frozen ``slots=True`` dataclass.

    A hand-written ``__init__`` calling them runs about 2.5x faster (CPython
    3.11) than the generated one's ``object.__setattr__`` per field; later
    assignment still raises ``FrozenInstanceError``.
    """
    return tuple(getattr(cls, name).__set__ for name in names)


_set_x, _set_y, _set_t = slot_setters(Point, "x", "y", "t")


def encode_point(point: "Point | None") -> list[float] | None:
    """``[x, y, t]`` wire form of a point (``None`` passes through).

    The single codec behind every snapshot/checkpoint payload: floats
    round-trip JSON exactly, so :func:`decode_point` reconstructs the point
    bit-identically.
    """
    return None if point is None else [point.x, point.y, point.t]


def decode_point(coords: "list[float] | None") -> "Point | None":
    """Inverse of :func:`encode_point`."""
    return None if coords is None else Point(coords[0], coords[1], coords[2])
