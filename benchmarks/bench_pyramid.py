"""Epsilon-pyramid cost guard (PR 9 acceptance criterion).

Asserts the pyramid's economic claim: serving k=4 resolution levels in one
pass costs at most 2x a single-level run — not 4x, because the coarse
levels re-ingest the finer level's *segment endpoints* (O(segments)), not
the raw stream (O(points)).  Two regimes are gated:

* the paper's taxi traffic for OPERB-A (segment-rich, the cascade pays
  real simplification cost and must still stay under 2x);
* the idle-heavy block workload for OPERB and OPERB-A (high compression,
  where the cascade is nearly free and the overhead bound is tight).

OPERB and Raw-OPERB-A on taxi are gated at the looser "well under 4x"
tentpole bound: a power-of-two ladder gives level 1 a cascade bound equal
to the finest epsilon, so on knee-heavy traffic level 1 retains nearly
every vertex and the cascade re-simplifies close to the full segment
stream (and the raw patching variant additionally pays certify-or-fallback
splices).

A correctness companion pins what makes the ratio meaningful: the k=4
hub's finest level is segment-identical to a single-epsilon hub, and
per-level segment counts shrink with epsilon — strictly monotone for
OPERB; the patching variants may locally exceed a finer coarse level by
the certify-or-fallback splices (a chord straddling two patched ranges is
spliced through verbatim to keep the bound sound), so they are held to a
10% inflation allowance instead.

The cost ratio is the median over back-to-back (k=4, k=1) pairs of runs,
whose order alternates, so a host hiccup lands in one pair and the median
drops it.

Skipped on constrained hosts (see ``_bench_utils.constrained_host``).
"""

from __future__ import annotations

import time

import pytest

from _bench_utils import constrained_host, median_ratio
from repro.perf.workloads import (
    IDLE_FLEET_PROFILE,
    PerfCase,
    build_fleet,
    interleave_fleet,
)
from repro.streaming import CollectingSink, StreamHub

MAX_PYRAMID_OVERHEAD = 2.0
MAX_OPERB_TAXI_OVERHEAD = 3.5
LEVELS = 4
PAIRS = 7
SHARDS = 8
TAXI_EPSILON = 40.0
IDLE_EPSILON = 10.0


@pytest.fixture(scope="module")
def taxi_records():
    case = PerfCase("bench-pyramid-taxi", "taxi", n_trajectories=16, points_per_trajectory=500)
    return interleave_fleet(build_fleet(case))


@pytest.fixture(scope="module")
def idle_records():
    case = PerfCase(
        "bench-pyramid-idle",
        IDLE_FLEET_PROFILE,
        n_trajectories=8,
        points_per_trajectory=1_000,
    )
    return interleave_fleet(build_fleet(case))


def _replay(algorithm: str, epsilon: float, records, levels: int) -> float:
    """Seconds one serial hub takes over the full log at ``levels`` resolutions."""
    ladder = tuple(epsilon * (2.0**level) for level in range(levels))
    hub = StreamHub(algorithm=algorithm, epsilons=ladder, shards=SHARDS, on_error="raise")
    try:
        for device_id in sorted({device_id for device_id, _ in records}):
            hub.register_device(device_id)
        started = time.perf_counter()
        hub.push_many(records)
        hub.finish_all()
        return time.perf_counter() - started
    finally:
        hub.close()


def _overhead(algorithm: str, epsilon: float, records) -> float:
    """Median wall ratio of a k-level pyramid over k=1."""
    return median_ratio(
        lambda: _replay(algorithm, epsilon, records, LEVELS),
        lambda: _replay(algorithm, epsilon, records, 1),
        PAIRS,
    )


@constrained_host
@pytest.mark.parametrize("algorithm", ["operb-a"])
def test_taxi_pyramid_costs_under_double(taxi_records, algorithm):
    overhead = _overhead(algorithm, TAXI_EPSILON, taxi_records)
    assert overhead <= MAX_PYRAMID_OVERHEAD, (
        f"{algorithm}: {LEVELS}-level pyramid cost {overhead:.2f}x a single "
        f"level on taxi traffic (allowed {MAX_PYRAMID_OVERHEAD}x)"
    )


@constrained_host
@pytest.mark.parametrize("algorithm", ["operb", "operb-a"])
def test_idle_pyramid_costs_under_double(idle_records, algorithm):
    overhead = _overhead(algorithm, IDLE_EPSILON, idle_records)
    assert overhead <= MAX_PYRAMID_OVERHEAD, (
        f"{algorithm}: {LEVELS}-level pyramid cost {overhead:.2f}x a single "
        f"level on the idle-fleet workload (allowed {MAX_PYRAMID_OVERHEAD}x)"
    )


@constrained_host
@pytest.mark.parametrize("algorithm", ["operb", "raw-operb-a"])
def test_taxi_pyramid_stays_well_under_linear(taxi_records, algorithm):
    overhead = _overhead(algorithm, TAXI_EPSILON, taxi_records)
    assert overhead <= MAX_OPERB_TAXI_OVERHEAD, (
        f"{algorithm}: {LEVELS}-level pyramid cost {overhead:.2f}x a single "
        f"level on taxi traffic (allowed {MAX_OPERB_TAXI_OVERHEAD}x — must "
        f"stay well under the naive {LEVELS}x)"
    )


def test_pyramid_finest_level_matches_single_run(taxi_records):
    """The cost comparison above only counts if level 0 is the same work."""
    for algorithm in ("operb", "operb-a", "raw-operb-a"):
        outputs = []
        for levels in (1, LEVELS):
            ladder = tuple(TAXI_EPSILON * (2.0**level) for level in range(levels))
            sinks: dict[str, CollectingSink] = {}

            def sink_factory(device_id: str, sinks=sinks) -> CollectingSink:
                return sinks.setdefault(device_id, CollectingSink())

            hub = StreamHub(
                algorithm=algorithm,
                epsilons=ladder,
                shards=SHARDS,
                on_error="raise",
                sink_factory=sink_factory,
            )
            try:
                hub.push_many(taxi_records)
                hub.finish_all()
                by_level = hub.stats().segments_by_level
            finally:
                hub.close()
            outputs.append(
                ({device: sink.segments for device, sink in sinks.items()}, by_level)
            )
        assert outputs[0][0] == outputs[1][0], (
            f"{algorithm}: finest pyramid level diverged from the single-epsilon run"
        )
        counts = outputs[1][1]
        assert counts is not None and len(counts) == LEVELS
        if algorithm == "operb":
            # No patching, so no certify-or-fallback splices: counts are
            # strictly non-increasing with epsilon.
            assert all(a >= b for a, b in zip(counts, counts[1:])), (
                f"{algorithm}: per-level segment counts not monotone: {counts}"
            )
        else:
            # The patching variants splice straddling chords through
            # verbatim to keep the coarse bound sound, which can locally
            # inflate a coarse level past a finer one — but never by more
            # than the fallback allowance.
            for level in range(1, LEVELS):
                assert counts[level] <= 1.10 * min(counts[:level]), (
                    f"{algorithm}: level {level} exceeds the fallback "
                    f"allowance: {counts}"
                )
