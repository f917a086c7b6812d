"""Block-ingest speedup guard (ISSUE 5 acceptance criterion).

Asserts that streaming ``push_block`` ingest beats per-point ``push`` by at
least 5x on a 10k-point stream whose shape favours batching: the idle-heavy
fleet workload (short driving bursts, long stationary dwells at full
reporting cadence — ``repro.perf.workloads.build_idle_fleet``).  Dwell phases form
long absorbable runs that the vectorized prefix kernels consume in one call
each; the guard fails when the block path silently degrades to per-point
work (e.g. a kernel regression or a broken probe policy).

The guard covers the paper's one-pass algorithms (OPERB, OPERB-A) and the
buffered batch adapter (``dp``), whose block ingest is O(1) per block.  It
deliberately does *not* gate run-poor workloads — there the block path's
contract is "no worse than per-point" (adaptive scalar backoff), which
``test_sparse_stream_overhead_is_bounded`` checks with a loose factor.

Skipped on constrained hosts (see ``_bench_utils.constrained_host``).
"""

from __future__ import annotations

import pytest

from _bench_utils import constrained_host, median_ratio, timed
from repro.api import Simplifier
from repro.datasets import generate_trajectory
from repro.perf.workloads import IDLE_FLEET_PROFILE, PerfCase, build_idle_fleet
from repro.trajectory.soa import PointBlock

REQUIRED_SPEEDUP = 5.0
MAX_SPARSE_SLOWDOWN = 1.5
N_POINTS = 10_000
BLOCK_SIZE = 4_096
EPSILON = 40.0
PAIRS = 5


@pytest.fixture(scope="module")
def idle_stream():
    case = PerfCase(
        "bench-idle", IDLE_FLEET_PROFILE, n_trajectories=1, points_per_trajectory=N_POINTS
    )
    trajectory = build_idle_fleet(case)[0]
    points = list(trajectory)
    return points, PointBlock.from_points(points).split(BLOCK_SIZE)


@pytest.fixture(scope="module")
def sparse_stream():
    trajectory = generate_trajectory("taxi", N_POINTS, seed=2017)
    points = list(trajectory)
    return points, PointBlock.from_points(points).split(BLOCK_SIZE)


def _measured_speedup(algorithm: str, points, blocks) -> float:
    session = Simplifier(algorithm, EPSILON)

    def per_point() -> None:
        stream = session.open_stream(keep_segments=False)
        for point in points:
            stream.push(point)
        stream.finish()

    def per_block() -> None:
        stream = session.open_stream(keep_segments=False)
        for block in blocks:
            stream.push_block(block)
        stream.finish()

    return median_ratio(timed(per_point), timed(per_block), PAIRS)


@constrained_host
@pytest.mark.parametrize("algorithm", ["operb", "operb-a", "dp"])
def test_block_ingest_speedup(idle_stream, algorithm):
    points, blocks = idle_stream
    speedup = _measured_speedup(algorithm, points, blocks)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"{algorithm} block ingest only {speedup:.1f}x faster than per-point "
        f"push on {N_POINTS} idle-heavy points (required {REQUIRED_SPEEDUP}x)"
    )


@constrained_host
@pytest.mark.parametrize("algorithm", ["operb", "dead-reckoning"])
def test_sparse_stream_overhead_is_bounded(sparse_stream, algorithm):
    """Run-poor streams must not pay materially for the block machinery."""
    points, blocks = sparse_stream
    speedup = _measured_speedup(algorithm, points, blocks)
    assert speedup * MAX_SPARSE_SLOWDOWN >= 1.0, (
        f"{algorithm} block ingest is {1 / speedup:.2f}x slower than per-point "
        f"push on a sparse taxi stream (allowed {MAX_SPARSE_SLOWDOWN}x)"
    )


def test_block_and_per_point_agree_on_the_speedup_workload(idle_stream):
    """The speed comparison above only counts if both paths agree."""
    points, blocks = idle_stream
    for algorithm in ("operb", "operb-a", "dead-reckoning", "dp"):
        session = Simplifier(algorithm, EPSILON)
        reference = session.open_stream()
        expected = reference.feed(points) + reference.finish()
        stream = session.open_stream()
        emitted = []
        for block in blocks:
            emitted.extend(stream.push_block(block))
        emitted += stream.finish()
        assert emitted == expected, f"{algorithm}: block ingest diverged"
