"""Fleet executor scaling — run_many with 1 vs N worker processes.

The pytest-benchmark comparison table is the result: at ``FLEET_SCALE``
(100 trajectories x 1000 points, a miniature of the ROADMAP's
millions-of-devices workload) the multi-worker backend should show a clear
wall-clock speedup over the serial backend while producing identical
representations (asserted here; bit-identity is locked in by
``tests/test_api_executor.py``).

``test_multi_worker_speedup`` is the same-run ratio guard: the median of
serial/multi-worker wall time over :data:`PAIRS` back-to-back pairs
(``_bench_utils.median_ratio``) must exceed 1.  Skipped on constrained
hosts (see ``_bench_utils.constrained_host``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_run_many_workers.py -q
"""

from __future__ import annotations

import os

import pytest

from _bench_utils import constrained_host, median_ratio, timed
from repro.api import Simplifier
from repro.experiments import FLEET_SCALE, profile_fleet

EPSILON = 40.0

try:
    EFFECTIVE_CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # platforms without sched_getaffinity
    EFFECTIVE_CPUS = os.cpu_count() or 1
WORKER_COUNTS = (1, max(2, min(4, EFFECTIVE_CPUS)))
PAIRS = 7


@pytest.fixture(scope="module")
def fleet():
    """100 Taxi-profile trajectories of 1000 points each (seeded)."""
    return profile_fleet("taxi", FLEET_SCALE, seed=2017)


@pytest.fixture(scope="module")
def serial_reference(fleet):
    return Simplifier("operb", EPSILON).run_many(fleet, workers=1)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_run_many_scaling(benchmark, fleet, serial_reference, workers):
    session = Simplifier("operb", EPSILON)
    benchmark.group = (
        f"run_many {FLEET_SCALE.n_trajectories}x{FLEET_SCALE.points_per_trajectory}"
    )
    benchmark.extra_info["workers"] = workers
    result = benchmark.pedantic(
        session.run_many, args=(fleet,), kwargs={"workers": workers}, rounds=3, iterations=1
    )
    assert result.ok and result.n_total == len(fleet)
    for ours, reference in zip(result.representations, serial_reference.representations):
        assert ours.n_segments == reference.n_segments


@constrained_host
def test_multi_worker_speedup(fleet):
    """N workers must beat serial on this fleet: the median, over
    back-to-back pairs, of serial time over multi-worker time exceeds 1."""
    workers = WORKER_COUNTS[-1]
    session = Simplifier("operb", EPSILON)
    speedup = median_ratio(
        timed(lambda: session.run_many(fleet, workers=1)),
        timed(lambda: session.run_many(fleet, workers=workers)),
        PAIRS,
    )
    print(f"\nrun_many speedup with {workers} workers: {speedup:.2f}x (median of {PAIRS})")
    assert speedup > 1.0, (
        f"run_many with {workers} workers is not faster than serial "
        f"({speedup:.2f}x, median of {PAIRS} pairs)"
    )
