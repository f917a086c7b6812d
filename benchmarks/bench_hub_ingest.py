"""Hub-ingest overhead guard: serial ``StreamHub.push_many`` vs bare sessions.

Times, in one run, the same seeded taxi fixes through two routes:

- hub: a serial :class:`~repro.streaming.StreamHub` fed one fix per device
  per ``push_many`` call (the arrival shape of a live serve loop);
- bare: one ``Simplifier.open_stream()`` session per device, fed with
  ``push``.

Both routes run the same per-device simplifier over the same fixes, so the
ratio of their times is the hub's own per-fix overhead: device lookup,
quarantine checks, failure accounting and segment emission to per-device
sinks.  The guard asserts the median ratio over back-to-back pairs stays
under :data:`MAX_OVERHEAD_RATIO`.  The bound comes from measurements on a
shared 2-vCPU x86 host under CPython 3.11, where the ratio read 1.28-1.41
before the shard core's ingest paths were merged into one routine and
1.33-1.40 after; making that routine (``_ShardCore._ingest``) take twice as
long pushes it to 2.9-3.0.  A same-run ratio cancels the host's speed, so
the guard needs no committed baseline — it is the same-run stand-in for
the ``repro.perf`` suite's serial hub cells.

Skipped on constrained hosts: single-core machines, or when
``REPRO_SKIP_SPEEDUP_ASSERT=1`` is set (for emulated/overloaded
environments where wall-clock ratios are meaningless).
``REPRO_FORCE_SPEEDUP_ASSERT=1`` overrides the skip either way.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.api import Simplifier
from repro.perf.workloads import build_device_log
from repro.streaming import CollectingSink, StreamHub

MAX_OVERHEAD_RATIO = 1.8
N_DEVICES = 24
POINTS_PER_DEVICE = 200
EPSILON = 40.0
PAIRS = 15

_forced = os.environ.get("REPRO_FORCE_SPEEDUP_ASSERT") == "1"
constrained_host = pytest.mark.skipif(
    not _forced
    and (os.environ.get("REPRO_SKIP_SPEEDUP_ASSERT") == "1" or (os.cpu_count() or 1) < 2),
    reason="constrained host: wall-clock speedup ratios are not meaningful",
)


@pytest.fixture(scope="module")
def ticks():
    """The seeded log cut into rounds of one fix per device."""
    records = build_device_log("taxi", N_DEVICES, POINTS_PER_DEVICE, seed=2017)
    return [records[i : i + N_DEVICES] for i in range(0, len(records), N_DEVICES)]


def _hub_run(ticks) -> tuple[float, dict[str, list]]:
    sinks: dict[str, CollectingSink] = {}

    def factory(device_id: str) -> CollectingSink:
        sinks[device_id] = CollectingSink()
        return sinks[device_id]

    with StreamHub(algorithm="operb", epsilon=EPSILON, sink_factory=factory) as hub:
        for device_id, _ in ticks[0]:
            hub.register_device(device_id)
        started = time.perf_counter()
        for tick in ticks:
            hub.push_many(tick)
        hub.finish_all()
        elapsed = time.perf_counter() - started
    return elapsed, {device_id: sink.segments for device_id, sink in sinks.items()}


def _bare_run(ticks) -> tuple[float, dict[str, list]]:
    simplifier = Simplifier("operb", EPSILON)
    streams = {
        device_id: simplifier.open_stream(keep_segments=False) for device_id, _ in ticks[0]
    }
    emitted: dict[str, list] = {device_id: [] for device_id in streams}
    started = time.perf_counter()
    for tick in ticks:
        for device_id, point in tick:
            emitted[device_id].extend(streams[device_id].push(point))
    for device_id, stream in streams.items():
        emitted[device_id].extend(stream.finish())
    return time.perf_counter() - started, emitted


def _overhead_ratio(ticks) -> float:
    """Median hub/bare time ratio over back-to-back pairs of runs.

    Each pair runs both routes within ~0.1 s, so host load that drifts
    between pairs hits both sides of a ratio alike; the median drops the
    pairs a load spike split.
    """
    ratios = []
    for _ in range(PAIRS):
        hub = _hub_run(ticks)[0]
        bare = _bare_run(ticks)[0]
        ratios.append(hub / bare)
    return statistics.median(ratios)


@constrained_host
def test_hub_per_fix_overhead_is_bounded(ticks):
    ratio = _overhead_ratio(ticks)
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"serial hub push_many takes {ratio:.2f}x the bare session time per fix "
        f"on {N_DEVICES} taxi devices (allowed {MAX_OVERHEAD_RATIO}x)"
    )


def test_hub_and_bare_routes_agree(ticks):
    """The ratio above only counts if both routes do the same work."""
    assert _hub_run(ticks)[1] == _bare_run(ticks)[1]
