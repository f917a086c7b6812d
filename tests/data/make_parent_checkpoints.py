"""Write the checkpoint-compatibility fixtures ``checkpoint_*.json``.

The fixtures were written by commit ``63d627b``, the last one whose OPERB
engine held fixes as ``Point`` objects, so they lock the checkpoint format
against that implementation's own output::

    git archive 63d627b | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/data/make_parent_checkpoints.py tests/data

Each fixture holds one seeded stream, the session snapshot taken after the
first ``cut`` fixes (the first point of the stream in the named state) and
a SHA-256 of the segments of the uninterrupted run.  Cut points are found
through ``snapshot()`` alone, so the script runs against any commit that
writes this format.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.api import Simplifier
from repro.datasets import generate_dataset
from repro.geometry.point import Point

# name -> (algorithm, profile, epsilon, seed, state predicate over the raw snapshot)
STATES = {
    "operb_mid_segment": (
        "operb",
        "geolife",
        40.0,
        11,
        lambda raw: raw["absorption"] is None
        and raw["segment"] is not None
        and raw["segment"]["last_active"] is not None
        and raw["segment"]["last_active_index"] < raw["index"]
        and raw["segment"]["points_in_segment"] >= 4,
    ),
    "operb_mid_absorption": (
        "operb",
        "geolife",
        40.0,
        11,
        lambda raw: raw["absorption"] is not None and raw["absorption"]["absorbed"] >= 2,
    ),
    "operb_a_pending_pair": (
        "operb-a",
        "taxi",
        10.0,
        11,
        lambda raw: len(raw["pending"]) == 2 and raw["engine"]["segment"] is not None,
    ),
}

MIN_CUT = 100
"""Cut no earlier than this many fixes, so the restored run has history."""


def segments_digest(segments) -> str:
    """SHA-256 over the exact JSON of every segment, in emission order."""
    payload = json.dumps([segment.to_dict() for segment in segments], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def build(name: str) -> dict:
    algorithm, profile, epsilon, seed, predicate = STATES[name]
    (trajectory,) = generate_dataset(
        profile, n_trajectories=1, points_per_trajectory=500, seed=seed
    )
    fixes = [[p.x, p.y, p.t] for p in trajectory]
    simplifier = Simplifier(algorithm, epsilon)
    session = simplifier.open_stream()
    cut = None
    snapshot = None
    for k, (x, y, t) in enumerate(fixes, start=1):
        session.push(Point(x, y, t))
        if k >= MIN_CUT:
            state = session.snapshot()
            if predicate(state["raw"]):
                cut, snapshot = k, state
                break
    if snapshot is None:
        raise SystemExit(f"{name}: no fix reaches the requested state")
    uninterrupted = simplifier.run(trajectory)
    return {
        "algorithm": algorithm,
        "epsilon": epsilon,
        "state": name,
        "cut": cut,
        "fixes": fixes,
        "session": snapshot,
        "segments_sha256": segments_digest(uninterrupted.segments),
    }


def main(out_dir: str) -> None:
    for name in STATES:
        path = Path(out_dir) / f"checkpoint_{name}.json"
        path.write_text(json.dumps(build(name), sort_keys=True) + "\n")
        print(path)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).parent))
