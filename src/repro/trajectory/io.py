"""Trajectory input/output.

Three formats are supported:

``csv``
    A plain ``x,y,t`` (or ``lat,lon,t``) table with a header row.
``plt``
    The GeoLife ``.plt`` format (six header lines, then
    ``lat,lon,0,altitude,days,date,time`` records), so the public GeoLife
    corpus can be fed to the algorithms directly when it is available.
``jsonl``
    One JSON object per trajectory, convenient for fleets.

Compressed outputs (piecewise representations) are written as CSV of the
retained vertices, which is how line-simplification results are normally
consumed downstream.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from ..exceptions import DatasetError
from .model import Trajectory
from .piecewise import PiecewiseRepresentation

__all__ = [
    "write_csv",
    "read_csv",
    "write_jsonl",
    "read_jsonl",
    "read_plt",
    "parse_plt",
    "write_piecewise_csv",
]

_PLT_HEADER_LINES = 6


def write_csv(trajectory: Trajectory, destination: str | Path | TextIO) -> None:
    """Write a trajectory as an ``x,y,t`` CSV file."""
    close = False
    if isinstance(destination, (str, Path)):
        handle: TextIO = open(destination, "w", newline="")
        close = True
    else:
        handle = destination
    try:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "t"])
        for x, y, t in zip(trajectory.xs, trajectory.ys, trajectory.ts):
            writer.writerow([repr(float(x)), repr(float(y)), repr(float(t))])
    finally:
        if close:
            handle.close()


def read_csv(source: str | Path | TextIO, *, trajectory_id: str = "") -> Trajectory:
    """Read a trajectory from an ``x,y,t`` CSV file produced by :func:`write_csv`."""
    close = False
    if isinstance(source, (str, Path)):
        handle: TextIO = open(source, "r", newline="")
        close = True
    else:
        handle = source
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return Trajectory.empty(trajectory_id=trajectory_id)
        xs: list[float] = []
        ys: list[float] = []
        ts: list[float] = []
        for row in reader:
            if not row:
                continue
            xs.append(float(row[0]))
            ys.append(float(row[1]))
            ts.append(float(row[2]) if len(row) > 2 else float(len(ts)))
        return Trajectory(xs, ys, ts, trajectory_id=trajectory_id, require_monotonic_time=False)
    finally:
        if close:
            handle.close()


def write_jsonl(trajectories: Iterable[Trajectory], destination: str | Path | TextIO) -> None:
    """Write a fleet of trajectories, one JSON object per line."""
    close = False
    if isinstance(destination, (str, Path)):
        handle: TextIO = open(destination, "w")
        close = True
    else:
        handle = destination
    try:
        for trajectory in trajectories:
            record = {
                "id": trajectory.trajectory_id,
                "x": [float(v) for v in trajectory.xs],
                "y": [float(v) for v in trajectory.ys],
                "t": [float(v) for v in trajectory.ts],
            }
            handle.write(json.dumps(record))
            handle.write("\n")
    finally:
        if close:
            handle.close()


def read_jsonl(source: str | Path | TextIO) -> list[Trajectory]:
    """Read a fleet of trajectories written by :func:`write_jsonl`."""
    close = False
    if isinstance(source, (str, Path)):
        handle: TextIO = open(source, "r")
        close = True
    else:
        handle = source
    try:
        trajectories: list[Trajectory] = []
        for raw_line in handle:
            text = raw_line.strip()
            if not text:
                continue
            record = json.loads(text)
            trajectories.append(
                Trajectory(
                    record["x"],
                    record["y"],
                    record.get("t"),
                    trajectory_id=record.get("id", ""),
                    require_monotonic_time=False,
                )
            )
        return trajectories
    finally:
        if close:
            handle.close()


def parse_plt(
    text: str, *, trajectory_id: str = "", project_to_metres: bool = True
) -> Trajectory:
    """Parse the content of a GeoLife ``.plt`` file.

    Parameters
    ----------
    project_to_metres:
        When true (default) latitude/longitude are projected to a local
        metric frame via :class:`~repro.geometry.projection.LocalProjection`;
        when false, raw degrees are kept as coordinates.
    """
    lines = text.splitlines()
    if len(lines) <= _PLT_HEADER_LINES:
        return Trajectory.empty(trajectory_id=trajectory_id)
    lats: list[float] = []
    lons: list[float] = []
    ts: list[float] = []
    for raw_line in lines[_PLT_HEADER_LINES:]:
        text = raw_line.strip()
        if not text:
            continue
        fields = text.split(",")
        if len(fields) < 7:
            raise DatasetError(f"malformed PLT record: {text!r}")
        lats.append(float(fields[0]))
        lons.append(float(fields[1]))
        # Field 4 is the timestamp in days since 1899-12-30 (Excel/Delphi epoch).
        ts.append(float(fields[4]) * 86400.0)
    if not lats:
        return Trajectory.empty(trajectory_id=trajectory_id)
    ts_array = np.asarray(ts, dtype=float)
    ts_array -= ts_array[0]
    if project_to_metres:
        return Trajectory.from_latlon(
            lats, lons, ts_array, trajectory_id=trajectory_id, require_monotonic_time=False
        )
    return Trajectory(lons, lats, ts_array, trajectory_id=trajectory_id, require_monotonic_time=False)


def read_plt(
    path: str | Path, *, trajectory_id: str = "", project_to_metres: bool = True
) -> Trajectory:
    """Read a single GeoLife ``.plt`` trajectory file."""
    path = Path(path)
    if not trajectory_id:
        trajectory_id = path.stem
    return parse_plt(
        path.read_text(), trajectory_id=trajectory_id, project_to_metres=project_to_metres
    )


def write_piecewise_csv(
    representation: PiecewiseRepresentation, destination: str | Path | TextIO
) -> None:
    """Write the retained vertices of a piecewise representation as CSV."""
    close = False
    if isinstance(destination, (str, Path)):
        handle: TextIO = open(destination, "w", newline="")
        close = True
    else:
        handle = destination
    try:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "t", "patched"])
        points = representation.retained_points
        patched_flags = [segment.patched_start for segment in representation.segments]
        patched_flags.append(
            representation.segments[-1].patched_end if representation.segments else False
        )
        for point, patched in zip(points, patched_flags):
            writer.writerow([repr(point.x), repr(point.y), repr(point.t), int(patched)])
    finally:
        if close:
            handle.close()
