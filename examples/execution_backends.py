"""One workload, three execution backends — same bytes, different wall time.

The execution runtime (:mod:`repro.exec`) makes parallelism a *deployment*
decision instead of a code path: the fleet executor and the streaming hub
run unchanged on the ``serial``, ``thread`` and ``node`` backends, and
every backend is contractually byte-identical.  This example sweeps both
surfaces across all three backends, verifies the equivalence, and prints
the throughput of each combination.

Run with::

    python examples/execution_backends.py
"""

from __future__ import annotations

import json
import time

from repro import Simplifier
from repro.datasets import generate_dataset
from repro.perf.workloads import build_device_log
from repro.streaming import CollectingSink, StreamHub

EPSILON = 40.0
BACKENDS = ("serial", "thread", "node")
WORKERS = 4


def sweep_fleet_executor() -> None:
    """The same fleet through ``run_many`` on every backend."""
    fleet = generate_dataset(
        "taxi", n_trajectories=24, points_per_trajectory=2_000, seed=41
    )
    session = Simplifier("operb", EPSILON)
    reference = None
    print(f"fleet executor: {len(fleet)} trajectories, operb, eps={EPSILON}")
    for backend in BACKENDS:
        result = session.run_many(fleet, workers=WORKERS, backend=backend)
        segments = [r.segments for r in result.successful()]
        if reference is None:
            reference = segments
        assert segments == reference, "backends must be byte-identical"
        print(
            f"  {result.backend:>7} x{result.workers}: "
            f"{result.points_per_second:>12,.0f} points/s "
            f"({result.seconds:.3f}s)"
        )


def sweep_stream_hub() -> None:
    """The same device log through the hub's shards on every backend."""
    records = build_device_log("taxi", n_devices=128, points_per_device=300, seed=41)
    reference = None
    print(f"\nstream hub: {len(records)} fixes from 128 devices, 8 shards")
    for backend in BACKENDS:
        sink = CollectingSink()
        with StreamHub(
            algorithm="operb",
            epsilon=EPSILON,
            shards=8,
            shared_sink=sink,
            backend=backend,
            workers=WORKERS,
        ) as hub:
            started = time.perf_counter()
            hub.push_many(records)
            hub.finish_all()  # synchronises the shard workers
            elapsed = time.perf_counter() - started
            payload = json.dumps(hub.checkpoint(), sort_keys=True, allow_nan=False)
            stats = hub.stats()
        if reference is None:
            reference = payload
        # The checkpoint (counters, per-device stream state) is the strongest
        # equivalence witness: identical bytes on every backend.
        assert payload == reference, "checkpoints must be byte-identical"
        print(
            f"  {backend:>7} x{hub.n_workers}: "
            f"{stats.points_pushed / elapsed:>12,.0f} points/s "
            f"({stats.segments_emitted} segments, max lag {stats.max_lag})"
        )


def main() -> None:
    sweep_fleet_executor()
    sweep_stream_hub()
    print("\nall backends produced byte-identical output")


if __name__ == "__main__":
    main()
