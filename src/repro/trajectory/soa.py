"""Structure-of-arrays trajectory view for the vectorized kernels.

A :class:`TrajectoryArray` pins a whole trajectory's coordinates in three
contiguous ``float64`` arrays so the batch algorithms (Douglas–Peucker, the
window family, BQS) and the metrics can hand coordinate ranges straight to
the :mod:`repro.geometry.kernels` without per-point Python objects.  It is a
*view*: building one from a :class:`~repro.trajectory.model.Trajectory` whose
arrays are already contiguous copies nothing.

The chord-deviation helpers mirror the recurring access pattern of the batch
algorithms — "measure the points strictly inside ``(first, last)`` against
the chord ``first -> last``" — with the distance metric (PED or SED) chosen
per call, and dispatch through the kernel layer so the
``vectorized``/``scalar`` backend flag applies uniformly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np
import numpy.typing as npt

from ..exceptions import InvalidTrajectoryError
from ..geometry import kernels
from ..geometry.point import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .model import Trajectory

__all__ = ["TrajectoryArray", "PointBlock"]


class TrajectoryArray:
    """Contiguous ``(xs, ys, ts)`` arrays of one trajectory.

    Parameters
    ----------
    xs, ys, ts:
        Equal-length one-dimensional coordinate arrays.  They are converted
        to C-contiguous ``float64`` arrays; already-contiguous ``float64``
        input is referenced, not copied.
    trajectory_id:
        Free-form identifier carried over from the source trajectory.
    """

    __slots__ = ("xs", "ys", "ts", "trajectory_id")

    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    trajectory_id: str

    def __init__(
        self,
        xs: npt.ArrayLike,
        ys: npt.ArrayLike,
        ts: npt.ArrayLike,
        *,
        trajectory_id: str = "",
    ) -> None:
        xs_arr = np.ascontiguousarray(xs, dtype=float)
        ys_arr = np.ascontiguousarray(ys, dtype=float)
        ts_arr = np.ascontiguousarray(ts, dtype=float)
        if xs_arr.ndim != 1 or ys_arr.ndim != 1 or ts_arr.ndim != 1:
            raise InvalidTrajectoryError("coordinate arrays must be one-dimensional")
        if not (xs_arr.shape == ys_arr.shape == ts_arr.shape):
            raise InvalidTrajectoryError(
                f"coordinate arrays have mismatched lengths: "
                f"{xs_arr.shape[0]}, {ys_arr.shape[0]}, {ts_arr.shape[0]}"
            )
        self.xs = xs_arr
        self.ys = ys_arr
        self.ts = ts_arr
        self.trajectory_id = trajectory_id

    @classmethod
    def from_trajectory(cls, trajectory: "Trajectory") -> "TrajectoryArray":
        """SoA view of ``trajectory`` (zero-copy when already contiguous)."""
        return cls(
            trajectory.xs,
            trajectory.ys,
            trajectory.ts,
            trajectory_id=trajectory.trajectory_id,
        )

    def to_trajectory(self) -> "Trajectory":
        """Materialise a :class:`Trajectory` sharing these arrays."""
        from .model import Trajectory

        return Trajectory(
            self.xs,
            self.ys,
            self.ts,
            trajectory_id=self.trajectory_id,
            require_monotonic_time=False,
        )

    # ------------------------------------------------------------------ #
    # Sequence behaviour
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.xs.shape[0])

    def point(self, index: int) -> Point:
        """The :class:`Point` at ``index`` (negative indices supported)."""
        if index < 0:
            index += len(self)
        if index < 0 or index >= len(self):
            raise IndexError(f"point index {index} out of range for {len(self)} points")
        return Point(float(self.xs[index]), float(self.ys[index]), float(self.ts[index]))

    def __repr__(self) -> str:
        ident = f" id={self.trajectory_id!r}" if self.trajectory_id else ""
        return f"{type(self).__name__}(n={len(self)}{ident})"

    # ------------------------------------------------------------------ #
    # Chord-range kernels
    # ------------------------------------------------------------------ #
    def _check_range(self, first: int, last: int) -> None:
        n = len(self)
        if not (0 <= first <= last < n):
            raise IndexError(
                f"chord range ({first}, {last}) out of bounds for {n} points"
            )

    def chord_deviations(self, first: int, last: int, *, use_sed: bool = False) -> np.ndarray:
        """Deviations of the points strictly inside ``(first, last)`` to the chord.

        The chord joins the points at ``first`` and ``last``; ``use_sed``
        selects the synchronised Euclidean distance instead of the
        perpendicular distance.
        """
        self._check_range(first, last)
        lo = first + 1
        xs = self.xs[lo:last]
        ys = self.ys[lo:last]
        ax = float(self.xs[first])
        ay = float(self.ys[first])
        bx = float(self.xs[last])
        by = float(self.ys[last])
        if use_sed:
            return kernels.sed_to_chord(
                xs,
                ys,
                self.ts[lo:last],
                ax,
                ay,
                float(self.ts[first]),
                bx,
                by,
                float(self.ts[last]),
            )
        return kernels.ped_to_chord(xs, ys, ax, ay, bx, by)

    def max_chord_deviation(
        self, first: int, last: int, *, use_sed: bool = False
    ) -> tuple[float, int]:
        """Maximum deviation inside ``(first, last)`` and its absolute index.

        Returns ``(0.0, -1)`` when the range has no interior point.
        """
        self._check_range(first, last)
        lo = first + 1
        xs = self.xs[lo:last]
        ys = self.ys[lo:last]
        ax = float(self.xs[first])
        ay = float(self.ys[first])
        bx = float(self.xs[last])
        by = float(self.ys[last])
        if use_sed:
            deviation, offset = kernels.max_sed_to_chord(
                xs,
                ys,
                self.ts[lo:last],
                ax,
                ay,
                float(self.ts[first]),
                bx,
                by,
                float(self.ts[last]),
            )
        else:
            deviation, offset = kernels.max_ped_to_chord(xs, ys, ax, ay, bx, by)
        if offset < 0:
            return 0.0, -1
        return deviation, lo + offset

    def window_within(
        self, first: int, last: int, epsilon: float, *, use_sed: bool = False
    ) -> bool:
        """Whether every point strictly inside ``(first, last)`` fits the chord."""
        self._check_range(first, last)
        if last - first < 2:
            return True
        lo = first + 1
        xs = self.xs[lo:last]
        ys = self.ys[lo:last]
        ax = float(self.xs[first])
        ay = float(self.ys[first])
        bx = float(self.xs[last])
        by = float(self.ys[last])
        if use_sed:
            return kernels.all_within_sed(
                xs,
                ys,
                self.ts[lo:last],
                ax,
                ay,
                float(self.ts[first]),
                bx,
                by,
                float(self.ts[last]),
                epsilon,
            )
        return kernels.all_within_chord(xs, ys, ax, ay, bx, by, epsilon)

    def segment_directions(self) -> np.ndarray:
        """Directions of the consecutive-point vectors, in ``[0, 2*pi)``."""
        if len(self) < 2:
            return np.array([], dtype=float)
        return kernels.direction_angles(np.diff(self.xs), np.diff(self.ys))


class PointBlock(TrajectoryArray):
    """A structure-of-arrays batch of streamed points.

    The unit of the block-based ingest protocol: where per-point streaming
    pushes one :class:`~repro.geometry.point.Point` at a time,
    ``push_block(block)`` hands a whole SoA batch to the simplifier so its
    inner loops can run the vectorized prefix kernels of
    :mod:`repro.geometry.kernels` instead of per-point Python.  A block
    carries no trajectory semantics — it is simply "the next ``n`` points of
    one stream, in arrival order"; splitting a stream into blocks at *any*
    boundaries yields byte-identical segments and checkpoints to per-point
    pushes, which the equivalence suite locks in.

    Blocks share :class:`TrajectoryArray`'s contiguous ``float64``
    ``(xs, ys, ts)`` arrays and validation; construction from an existing
    trajectory or from contiguous arrays is zero-copy.  Block ingest reads
    the columns (see :mod:`repro.trajectory.blocks`), so a block keeps no
    per-point objects.
    """

    __slots__ = ()

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "PointBlock":
        """Pack an iterable of points into one block (arrival order kept)."""
        pts = points if isinstance(points, (list, tuple)) else list(points)
        return cls(
            np.array([p.x for p in pts], dtype=float),
            np.array([p.y for p in pts], dtype=float),
            np.array([p.t for p in pts], dtype=float),
        )

    @classmethod
    def concat(cls, blocks: Sequence["PointBlock"]) -> "PointBlock":
        """Concatenate several blocks into one (empty input gives an empty block)."""
        if not blocks:
            return cls.empty()
        return cls(
            np.concatenate([block.xs for block in blocks]),
            np.concatenate([block.ys for block in blocks]),
            np.concatenate([block.ts for block in blocks]),
        )

    @classmethod
    def empty(cls) -> "PointBlock":
        """A zero-length block (pushing it is a cheap no-op)."""
        return cls(
            np.array([], dtype=float), np.array([], dtype=float), np.array([], dtype=float)
        )

    def __getitem__(self, index: int) -> Point:
        """``block[i]`` is :meth:`point`: a block indexes like a point sequence."""
        return self.point(index)

    def slice(self, start: int, stop: int) -> "PointBlock":
        """Sub-block view of ``[start, stop)`` (no array copy)."""
        return type(self)(self.xs[start:stop], self.ys[start:stop], self.ts[start:stop])

    def split(self, block_size: int) -> "list[PointBlock]":
        """Chop into consecutive sub-blocks of at most ``block_size`` points."""
        if block_size < 1:
            raise InvalidTrajectoryError(
                f"block_size must be at least 1, got {block_size}"
            )
        return [
            self.slice(start, min(start + block_size, len(self)))
            for start in range(0, len(self), block_size)
        ]

    def __iter__(self) -> Iterator[Point]:
        """Iterate the block as :class:`Point` objects (the per-point view)."""
        return map(Point, self.xs.tolist(), self.ys.tolist(), self.ts.tolist())
