"""Batch-speed guard and the paper's efficiency ordering (Figs 12-13).

On each of the four paper profiles a seeded fleet (2 trajectories x 2,000
fixes) is simplified with ``Simplifier.run`` by DP, OPW, OPERB, OPERB-A
and FBQS, and each run is timed against :func:`calibration_loop`, a fixed
pure-Python float loop that lives here, outside the package.  Two kinds of
same-run ratio are gated, each as the median over back-to-back pairs:

- cost: an algorithm's time over the calibration loop's, per profile,
  under :data:`HEADROOM` times :data:`MEASURED_COST`.  The reference is code no change to the package
  can touch, so a slowdown in one algorithm cannot cancel against another
  algorithm's.
- ordering: OPERB's time over FBQS's must stay under 1 (the part of the
  paper's ranking that holds here), and OPERB's time over DP's under
  :data:`HEADROOM` times :data:`MEASURED_OPERB_OVER_DP`.  The paper ranks OPERB ahead of DP; here
  that holds on taxi and truck traffic but the NumPy-vectorised DP is
  faster on sercar and geolife (see the README's "Efficiency vs the
  paper"), so this bound records where OPERB stands and trips if it falls
  behind.

The reference host is a shared 2-vCPU x86 VM under CPython 3.11.  The
guard stands in for the batch cells of the
retired ``repro.perf`` baseline.

The tier-1 suite (``tests/test_benchmark_guards.py``) pins that the
calibration loop is fixed work and that every algorithm covers every
trajectory of every fleet.

Skipped on constrained hosts (see ``_bench_utils.constrained_host``).
"""

from __future__ import annotations

import math

import pytest

from _bench_utils import constrained_host, median_ratio, timed
from repro.api import Simplifier
from repro.datasets import generate_dataset

PROFILES = ("taxi", "truck", "sercar", "geolife")
ALGORITHMS = ("dp", "opw", "operb", "operb-a", "fbqs")
EPSILON = 40.0
PAIRS = 11
CALIBRATION_STEPS = 40_000

HEADROOM = 1.5
"""Each bound is this multiple of the ratio measured on the reference host."""

MEASURED_COST = {
    "dp": {"taxi": 1.66, "truck": 1.17, "sercar": 0.27, "geolife": 0.34},
    "opw": {"taxi": 5.11, "truck": 5.06, "sercar": 4.84, "geolife": 4.75},
    "operb": {"taxi": 1.26, "truck": 1.05, "sercar": 0.83, "geolife": 0.73},
    "operb-a": {"taxi": 1.64, "truck": 1.08, "sercar": 0.91, "geolife": 0.73},
    "fbqs": {"taxi": 8.28, "truck": 6.40, "sercar": 10.23, "geolife": 8.74},
}
"""Median algorithm/calibration time ratio per profile, averaged over four
runs of the guard on the reference host (each run's medians stayed within
about 15% of these)."""

MEASURED_OPERB_OVER_DP = {"taxi": 0.68, "truck": 0.84, "sercar": 3.00, "geolife": 2.03}
"""Median OPERB/DP time ratio per profile, measured the same way."""


def calibration_loop(steps: int = CALIBRATION_STEPS) -> float:
    """A fixed pure-Python float loop: the unit the costs are counted in.

    Per step it does what a one-pass simplifier does per fix (a few float
    operations, a square root, a comparison and a branch), with no call
    into the package.
    """
    x = y = heading = 0.0
    longest = 0.0
    for step in range(steps):
        heading += 0.001 * (step % 7 - 3)
        x += math.cos(heading)
        y += math.sin(heading)
        reach = math.sqrt(x * x + y * y)
        if reach > longest:
            longest = reach
    return longest


def build_fleet(profile: str) -> list:
    """The seeded fleet every algorithm runs over on ``profile``."""
    return generate_dataset(profile, n_trajectories=2, points_per_trajectory=2_000, seed=2017)


@pytest.fixture(scope="module")
def fleets():
    return {profile: build_fleet(profile) for profile in PROFILES}


def batch_run(algorithm: str, fleet):
    """A callable simplifying the whole fleet once; returns the outputs."""
    simplifier = Simplifier(algorithm, EPSILON)
    return lambda: [simplifier.run(trajectory) for trajectory in fleet]


@constrained_host
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_batch_cost_against_calibration(fleets, algorithm, profile):
    cost = median_ratio(
        timed(batch_run(algorithm, fleets[profile])), timed(calibration_loop), PAIRS
    )
    bound = HEADROOM * MEASURED_COST[algorithm][profile]
    assert cost < bound, (
        f"{algorithm} on {profile} took {cost:.2f}x the calibration loop "
        f"(allowed {bound:.2f}x)"
    )


@constrained_host
@pytest.mark.parametrize("profile", PROFILES)
def test_operb_beats_fbqs(fleets, profile):
    fleet = fleets[profile]
    ratio = median_ratio(
        timed(batch_run("operb", fleet)), timed(batch_run("fbqs", fleet)), PAIRS
    )
    assert ratio < 1.0, f"OPERB took {ratio:.2f}x FBQS's time on {profile}"


@constrained_host
@pytest.mark.parametrize("profile", PROFILES)
def test_operb_over_dp_is_bounded(fleets, profile):
    fleet = fleets[profile]
    ratio = median_ratio(
        timed(batch_run("operb", fleet)), timed(batch_run("dp", fleet)), PAIRS
    )
    bound = HEADROOM * MEASURED_OPERB_OVER_DP[profile]
    assert ratio < bound, (
        f"OPERB took {ratio:.2f}x DP's time on {profile} (allowed {bound:.2f}x)"
    )
