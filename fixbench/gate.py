"""The correctness gate: checks a round's stored output, outside any timing.

* Stored finest-level segments equal a direct ``Simplifier.open_stream()``
  replay of each device (per-fix ``push`` then ``finish``).
* Every raw fix is within zeta of the line of a stored segment whose index
  range (``first_index`` .. ``covered_last_index``) covers it.  The check is
  written here with numpy, independent of the program's own kernels.
* ``idle-node`` output equals a serial-backend hub replay of the same ticks.
* ``paper-batch``: what ``Simplifier.run`` returned is what the store holds.
"""

from __future__ import annotations

import numpy as np

from repro import Simplifier
from repro.store import Store
from repro.streaming import CollectingSink

from pipelines import SERIAL_SERVE, open_hub
from traffic import EPSILON, Traffic

TOLERANCE_M = 1e-6


class GateError(Exception):
    """The program's output is wrong."""


def stored_segments(store: Store, keys: list[str]) -> dict[str, list]:
    """Each key's stored segments, in canonical (emission) order."""
    return {key: [s.record for s in store.query(device=key).segments] for key in keys}


def stream_replay(algorithm: str, trajectory) -> list:
    stream = Simplifier(algorithm, EPSILON).open_stream()
    segments = []
    for point in trajectory:
        segments.extend(stream.push(point))
    segments.extend(stream.finish())
    return segments


def serial_hub_replay(traffic: Traffic) -> dict[str, list]:
    sinks: dict[str, CollectingSink] = {}

    def factory(device_id: str) -> CollectingSink:
        sinks[device_id] = CollectingSink()
        return sinks[device_id]

    with open_hub(SERIAL_SERVE, factory) as hub:
        for tick in traffic.ticks:
            hub.push_many(tick)
        hub.finish_all()
    return {device_id: sink.segments for device_id, sink in sinks.items()}


def worst_deviation(trajectory, segments: list) -> float:
    """Largest distance from a fix to the nearest line of a covering segment."""
    xs, ys = trajectory.xs, trajectory.ys
    best = np.full(len(xs), np.inf)
    for segment in segments:
        first, last = segment.first_index, segment.covered_last_index
        px, py = xs[first : last + 1], ys[first : last + 1]
        sx, sy = segment.start.x, segment.start.y
        dx, dy = segment.end.x - sx, segment.end.y - sy
        length = float(np.hypot(dx, dy))
        if length == 0.0:
            distance = np.hypot(px - sx, py - sy)
        else:
            distance = np.abs(dx * (py - sy) - dy * (px - sx)) / length
        np.minimum(best[first : last + 1], distance, out=best[first : last + 1])
    return float(best.max()) if len(best) else 0.0


def _compare(label: str, got: dict[str, list], want: dict[str, list]) -> None:
    for key in sorted(want):
        if got.get(key) != want[key]:
            raise GateError(f"{label}: segments of {key!r} differ")
    extra = sorted(set(got) - set(want))
    if extra:
        raise GateError(f"{label}: unexpected devices {extra[:3]}")


def _check_bound(stored: dict[str, list], trajectories: dict[str, object]) -> None:
    for key, trajectory in trajectories.items():
        worst = worst_deviation(trajectory, stored[key])
        if not worst <= EPSILON + TOLERANCE_M:
            raise GateError(f"{key!r}: a fix lies {worst:.3f} m from its segments")


def check_serve(traffic: Traffic, stored: dict[str, list], *, node: bool) -> None:
    """Gate one serve round's store contents (``stored`` per device id)."""
    trajectories = dict(zip(traffic.device_ids, traffic.trajectories))
    replay = {key: stream_replay("operb", t) for key, t in trajectories.items()}
    _compare("stored vs open_stream replay", stored, replay)
    _check_bound(stored, trajectories)
    if node:
        _compare("node vs serial-backend replay", stored, serial_hub_replay(traffic))


def check_batch(
    traffic: Traffic, outputs: dict[str, list], stored: dict[str, list], algorithms
) -> None:
    """Gate one batch round: run output, its stored copy, and the bound."""
    _compare("stored vs Simplifier.run output", stored, outputs)
    trajectories = {
        f"{device_id}/{algorithm}": trajectory
        for device_id, trajectory in zip(traffic.device_ids, traffic.trajectories)
        for algorithm in algorithms
    }
    replay = {key: stream_replay(key.split("/")[1], t) for key, t in trajectories.items()}
    _compare("Simplifier.run vs open_stream replay", outputs, replay)
    _check_bound(stored, trajectories)
