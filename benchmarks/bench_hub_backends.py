"""Concurrent-hub guard: thread and node hubs against a serial hub.

Replays, in one run, the same seeded interleaved logs through a serial
:class:`~repro.streaming.StreamHub` and through a concurrent one:

- taxi: 64 devices x 500 fixes, the paper's dense urban traffic, on a
  thread hub (4 workers) and a node hub (2 workers);
- idle: 16 devices x 4,000 fixes of the idle-heavy fleet (long stationary
  dwells at full cadence), shipped in 4,096-record blocks, the regime the
  block kernels are built for, on the thread hub.

Each timed run pre-registers the devices, then times ``push_many`` over
the whole log plus ``finish_all`` (which drains the workers).  Every hub
runs the same per-device OPERB over the same fixes, so the ratio of a
concurrent hub's time to the serial hub's isolates what the backend adds:
batching and grouping in the parent, the actor mailbox, and on the node
backend the wire frames and sockets.  The guard asserts the median of
back-to-back pair ratios stays under the bound of its cell
(:data:`MAX_RATIO`).  The bounds are about 1.5x the medians measured on a
shared 2-vCPU x86 host under CPython 3.11 (thread/taxi 1.08-1.30,
thread/idle 0.57-0.71, node/taxi 1.10-1.24); making the concurrent ingest
path (``StreamHub._ship_batch`` and ``_ShardCore.push_groups``) take twice
as long read 2.7-3.3, 4.7-6.6 and 2.3-2.5.  A node hub on the idle log is
not gated: its workers overlap the parent's routing loop, so its ratio
moved only from ~0.6 to ~1.1 under the same slowdown, too little to tell
from its noise.  It stands in for the thread and node hub cells of the
retired ``repro.perf`` baseline, without a committed host-specific number.

The tier-1 suite (``tests/test_benchmark_guards.py``) pins that every
gated concurrent hub emits exactly the serial hub's per-device segments on
its log, so the ratio compares the same work.

Skipped on constrained hosts (see ``_bench_utils.constrained_host``).
"""

from __future__ import annotations

import time

import pytest

from _bench_utils import constrained_host, median_ratio
from repro.perf.workloads import (
    IDLE_FLEET_PROFILE,
    PerfCase,
    build_device_log,
    build_idle_fleet,
    interleave_fleet,
)
from repro.streaming import StreamHub

ALGORITHM = "operb"
EPSILON = 40.0
SHARDS = 8
PAIRS = 9

LOGS = {
    "taxi": 512,
    "idle": 4_096,
}
"""Block size each log is shipped with (records per worker batch)."""

MAX_RATIO = {
    ("thread", "taxi"): 1.8,
    ("thread", "idle"): 1.0,
    ("node", "taxi"): 1.8,
}
"""Bound on the median concurrent/serial time ratio, per (backend, log)."""

WORKERS = {"thread": 4, "node": 2}


def build_logs() -> dict[str, list]:
    """The seeded taxi and idle logs, by name."""
    idle = PerfCase(
        "bench-idle", IDLE_FLEET_PROFILE, n_trajectories=16, points_per_trajectory=4_000
    )
    return {
        "taxi": build_device_log("taxi", 64, 500, seed=2017),
        "idle": interleave_fleet(build_idle_fleet(idle)),
    }


@pytest.fixture(scope="module")
def logs():
    return build_logs()


def hub(backend: str, log: str, **kwargs) -> StreamHub:
    """A hub configured like every timed run of ``log`` on ``backend``."""
    return StreamHub(
        algorithm=ALGORITHM,
        epsilon=EPSILON,
        shards=SHARDS,
        on_error="raise",
        backend=backend,
        workers=WORKERS.get(backend, 1),
        block_size=LOGS[log],
        **kwargs,
    )


def _replay(backend: str, log: str, records) -> float:
    """Seconds one hub takes to ingest and drain the whole log."""
    with hub(backend, log) as running:
        for device_id in sorted({device_id for device_id, _ in records}):
            running.register_device(device_id)
        started = time.perf_counter()
        running.push_many(records)
        running.finish_all()
        return time.perf_counter() - started


@constrained_host
@pytest.mark.parametrize(("backend", "log"), sorted(MAX_RATIO))
def test_concurrent_hub_against_serial(logs, backend, log):
    records = logs[log]
    ratio = median_ratio(
        lambda: _replay(backend, log, records),
        lambda: _replay("serial", log, records),
        PAIRS,
    )
    bound = MAX_RATIO[(backend, log)]
    assert ratio < bound, (
        f"{backend} hub took {ratio:.2f}x the serial hub's time on the {log} "
        f"log (allowed {bound}x)"
    )
