"""The :class:`Trajectory` container.

A trajectory (paper Section 3.1) is a sequence of data points ``P(x, y, t)``
ordered by time.  The container is NumPy-backed so batch algorithms and
metrics can operate on whole coordinate arrays at once, while streaming
algorithms iterate over :class:`~repro.geometry.point.Point` views.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import InvalidTrajectoryError
from ..geometry.point import Point
from ..geometry.projection import LocalProjection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .soa import TrajectoryArray

__all__ = ["Trajectory"]

_ITER_CHUNK = 4096
"""Points converted per column chunk while iterating a trajectory."""


class Trajectory:
    """An immutable sequence of trajectory data points.

    Parameters
    ----------
    xs, ys:
        Planar coordinates (metres in a local projection).
    ts:
        Timestamps in seconds.  Optional; when omitted, indices are used.
    trajectory_id:
        Free-form identifier, useful when working with fleets of
        trajectories.
    require_monotonic_time:
        When true (the default), timestamps must be non-decreasing, mirroring
        the paper's definition of a trajectory.  Raw sensor feeds that may be
        out of order can be loaded with ``require_monotonic_time=False`` and
        repaired via :func:`repro.trajectory.operations.sort_by_time`.
    """

    __slots__ = ("_xs", "_ys", "_ts", "_soa", "trajectory_id")

    def __init__(
        self,
        xs: Sequence[float] | np.ndarray,
        ys: Sequence[float] | np.ndarray,
        ts: Sequence[float] | np.ndarray | None = None,
        *,
        trajectory_id: str = "",
        require_monotonic_time: bool = True,
    ) -> None:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1:
            raise InvalidTrajectoryError("coordinate arrays must be one-dimensional")
        if xs.shape != ys.shape:
            raise InvalidTrajectoryError(
                f"x and y arrays have different lengths: {xs.shape[0]} != {ys.shape[0]}"
            )
        if ts is None:
            ts = np.arange(xs.shape[0], dtype=float)
        else:
            ts = np.asarray(ts, dtype=float)
            if ts.shape != xs.shape:
                raise InvalidTrajectoryError(
                    f"timestamp array length {ts.shape[0]} does not match {xs.shape[0]} points"
                )
        if xs.size and not (
            np.isfinite(xs).all() and np.isfinite(ys).all() and np.isfinite(ts).all()
        ):
            raise InvalidTrajectoryError("trajectory contains non-finite coordinates")
        if require_monotonic_time and ts.size > 1 and np.any(np.diff(ts) < 0.0):
            raise InvalidTrajectoryError(
                "timestamps must be non-decreasing; "
                "use require_monotonic_time=False for raw feeds"
            )
        self._xs = xs
        self._ys = ys
        self._ts = ts
        self._soa = None
        self.trajectory_id = trajectory_id

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_points(
        cls, points: Iterable[Point], *, trajectory_id: str = "", require_monotonic_time: bool = True
    ) -> "Trajectory":
        """Build a trajectory from an iterable of :class:`Point`."""
        pts = list(points)
        xs = np.array([p.x for p in pts], dtype=float)
        ys = np.array([p.y for p in pts], dtype=float)
        ts = np.array([p.t for p in pts], dtype=float)
        return cls(
            xs, ys, ts, trajectory_id=trajectory_id, require_monotonic_time=require_monotonic_time
        )

    @classmethod
    def from_latlon(
        cls,
        lats: Sequence[float] | np.ndarray,
        lons: Sequence[float] | np.ndarray,
        ts: Sequence[float] | np.ndarray | None = None,
        *,
        trajectory_id: str = "",
        projection: LocalProjection | None = None,
        require_monotonic_time: bool = True,
    ) -> "Trajectory":
        """Build a trajectory from WGS-84 latitude/longitude arrays.

        A :class:`LocalProjection` centred on the first point is used by
        default so the resulting coordinates are in metres and error bounds
        can be expressed in metres, as in the paper's experiments.
        """
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        if lats.size == 0:
            return cls(lats, lons, ts, trajectory_id=trajectory_id)
        if projection is None:
            projection = LocalProjection.for_origin(float(lats[0]), float(lons[0]))
        xs, ys = projection.arrays_to_xy(lats, lons)
        return cls(
            xs, ys, ts, trajectory_id=trajectory_id, require_monotonic_time=require_monotonic_time
        )

    @classmethod
    def empty(cls, *, trajectory_id: str = "") -> "Trajectory":
        """An empty trajectory."""
        return cls(np.array([]), np.array([]), np.array([]), trajectory_id=trajectory_id)

    # ------------------------------------------------------------------ #
    # Array views
    # ------------------------------------------------------------------ #
    @property
    def xs(self) -> np.ndarray:
        """The x-coordinate array (do not mutate)."""
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        """The y-coordinate array (do not mutate)."""
        return self._ys

    @property
    def ts(self) -> np.ndarray:
        """The timestamp array (do not mutate)."""
        return self._ts

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the ``(xs, ys, ts)`` arrays."""
        return self._xs.copy(), self._ys.copy(), self._ts.copy()

    def soa(self) -> "TrajectoryArray":
        """Cached structure-of-arrays view for the vectorized kernels.

        The view pins the coordinates in contiguous ``float64`` arrays (a
        no-op for trajectories built from such arrays) and is built at most
        once per trajectory.
        """
        if self._soa is None:
            from .soa import TrajectoryArray

            self._soa = TrajectoryArray.from_trajectory(self)
        return self._soa

    # ------------------------------------------------------------------ #
    # Sequence behaviour
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._xs.shape[0])

    def __getitem__(self, index: int) -> Point:
        if isinstance(index, slice):
            return self.slice(*index.indices(len(self)))
        if index < 0:
            index += len(self)
        if index < 0 or index >= len(self):
            raise IndexError(f"point index {index} out of range for {len(self)} points")
        return Point(float(self._xs[index]), float(self._ys[index]), float(self._ts[index]))

    def __iter__(self) -> Iterator[Point]:
        # Columns are converted to Python floats a chunk at a time: one
        # ``tolist()`` per column instead of three numpy-scalar conversions
        # per point, without materialising a huge trajectory as lists.
        for start in range(0, len(self), _ITER_CHUNK):
            stop = start + _ITER_CHUNK
            xs = self._xs[start:stop].tolist()
            ys = self._ys[start:stop].tolist()
            ts = self._ts[start:stop].tolist()
            yield from map(Point, xs, ys, ts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            np.array_equal(self._xs, other._xs)
            and np.array_equal(self._ys, other._ys)
            and np.array_equal(self._ts, other._ts)
        )

    def __repr__(self) -> str:
        ident = f" id={self.trajectory_id!r}" if self.trajectory_id else ""
        return f"Trajectory(n={len(self)}{ident})"

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def slice(self, start: int, stop: int, step: int = 1) -> "Trajectory":
        """Sub-trajectory covering ``[start, stop)`` with the given step."""
        return Trajectory(
            self._xs[start:stop:step],
            self._ys[start:stop:step],
            self._ts[start:stop:step],
            trajectory_id=self.trajectory_id,
            require_monotonic_time=False,
        )

    def path_length(self) -> float:
        """Total travelled distance (sum of consecutive point distances)."""
        if len(self) < 2:
            return 0.0
        return float(np.sum(np.hypot(np.diff(self._xs), np.diff(self._ys))))

    def duration(self) -> float:
        """Time span covered by the trajectory in seconds."""
        if len(self) < 2:
            return 0.0
        return float(self._ts[-1] - self._ts[0])

    def bounding_box(self) -> tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` of the trajectory."""
        if len(self) == 0:
            return (0.0, 0.0, 0.0, 0.0)
        return (
            float(self._xs.min()),
            float(self._ys.min()),
            float(self._xs.max()),
            float(self._ys.max()),
        )

    def sampling_intervals(self) -> np.ndarray:
        """Array of consecutive timestamp differences."""
        if len(self) < 2:
            return np.array([])
        return np.diff(self._ts)

    def mean_sampling_interval(self) -> float:
        """Average sampling interval in seconds (0.0 for fewer than 2 points)."""
        intervals = self.sampling_intervals()
        if intervals.size == 0:
            return 0.0
        return float(intervals.mean())
