"""Vectorized-kernel speedup guard (ISSUE 2 acceptance criterion).

Asserts that the structure-of-arrays PED/SED kernels beat the scalar
per-point fallback by at least 5x on a 10k-point trajectory.  The margin is
enormous in practice (two orders of magnitude), so the assertion only fails
when vectorization is genuinely broken — e.g. a kernel silently falling back
to the scalar loop.

Skipped on constrained hosts (see ``_bench_utils.constrained_host``).
"""

from __future__ import annotations

import pytest

from _bench_utils import constrained_host, median_ratio, timed
from repro.datasets import generate_trajectory
from repro.geometry import kernels

REQUIRED_SPEEDUP = 5.0
N_POINTS = 10_000
PAIRS = 3


@pytest.fixture(scope="module")
def soa_10k():
    trajectory = generate_trajectory("taxi", N_POINTS, seed=2017)
    return trajectory.soa()


def _measured_speedup(soa, *, use_sed: bool) -> float:
    first, last = 0, len(soa) - 1
    run = timed(lambda: soa.chord_deviations(first, last, use_sed=use_sed))

    def on(backend: str) -> float:
        with kernels.kernel_backend(backend):
            return run()

    return median_ratio(lambda: on("scalar"), lambda: on("vectorized"), PAIRS)


@constrained_host
def test_vectorized_ped_kernel_speedup(soa_10k):
    speedup = _measured_speedup(soa_10k, use_sed=False)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"vectorized PED kernel only {speedup:.1f}x faster than scalar "
        f"on {N_POINTS} points (required {REQUIRED_SPEEDUP}x)"
    )


@constrained_host
def test_vectorized_sed_kernel_speedup(soa_10k):
    speedup = _measured_speedup(soa_10k, use_sed=True)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"vectorized SED kernel only {speedup:.1f}x faster than scalar "
        f"on {N_POINTS} points (required {REQUIRED_SPEEDUP}x)"
    )


@constrained_host
def test_backends_agree_on_the_speedup_workload(soa_10k):
    """The speed comparison above only counts if both backends agree."""
    import numpy as np

    first, last = 0, len(soa_10k) - 1
    with kernels.kernel_backend("vectorized"):
        vectorized = soa_10k.chord_deviations(first, last, use_sed=True)
    with kernels.kernel_backend("scalar"):
        scalar = soa_10k.chord_deviations(first, last, use_sed=True)
    np.testing.assert_allclose(vectorized, scalar, atol=1e-9, rtol=1e-9)
