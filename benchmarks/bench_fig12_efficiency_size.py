"""Figure 12 (Exp-1.1) — running time vs. trajectory size at zeta = 40 m.

The pytest-benchmark comparison table is the figure: algorithms are grouped
per dataset/size, so their relative ordering and their scaling with the
trajectory size can be read off directly.  The paper ranks OPERB/OPERB-A
fastest, then FBQS, then DP; measured here OPERB beats FBQS, and the
NumPy-vectorised DP is faster than OPERB at zeta = 40 (see the README's
"Efficiency vs the paper").
"""

from __future__ import annotations

import pytest

from repro.api import get_descriptor
from repro.datasets import generate_trajectory
from repro.experiments import fig12_efficiency_size

from _bench_utils import write_result

EPSILON = 40.0
ALGORITHMS = ("dp", "fbqs", "operb", "operb-a")
SIZES = (2_000, 6_000)


@pytest.fixture(scope="module", params=SIZES)
def sized_taxi(request):
    return generate_trajectory("taxi", request.param, seed=2017), request.param


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fig12_running_time(benchmark, sized_taxi, algorithm):
    trajectory, size = sized_taxi
    function = get_descriptor(algorithm).batch
    benchmark.group = f"fig12 Taxi n={size}"
    benchmark.extra_info["size"] = size
    representation = benchmark(function, trajectory, EPSILON)
    assert representation.n_segments >= 1


def test_fig12_table(benchmark, results_dir):
    """Regenerate the figure-12 table (speedups vs DP) at a small scale."""
    result = benchmark.pedantic(
        lambda: fig12_efficiency_size.run(
            sizes=(2_000, 4_000), datasets=("Taxi", "SerCar"), seed=2017
        ),
        rounds=1,
        iterations=1,
    )
    operb_rows = result.filter_rows(algorithm="operb")
    assert all(row["speedup vs dp"] is not None for row in operb_rows)
    write_result(results_dir, "fig12_efficiency_size", result.to_text())
