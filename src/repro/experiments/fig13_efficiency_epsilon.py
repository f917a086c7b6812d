"""Figure 13 (Exp-1.2) — running time versus the error bound.

The paper varies ``zeta`` from 10 m to 100 m over the entire datasets and
reports running times.  The expected shape: run time is largely insensitive
to ``zeta`` (decreasing slightly as ``zeta`` grows), OPERB/OPERB-A are the
fastest, DP the slowest and the most sensitive.  Measured here, OPERB beats
FBQS on every dataset and ``zeta``, but the NumPy-vectorised DP is faster
than the point-by-point one-pass algorithms except at small ``zeta`` on
dense traffic (see the README's "Efficiency vs the paper").
"""

from __future__ import annotations

from typing import Sequence

from ..trajectory.model import Trajectory
from .runner import PAPER_ALGORITHMS, ExperimentResult, time_algorithm
from .workloads import SMALL_SCALE, WorkloadScale, standard_datasets

__all__ = ["run"]

EXPERIMENT_ID = "fig13"
TITLE = "Efficiency vs. error bound zeta"

DEFAULT_EPSILONS = (10.0, 20.0, 40.0, 60.0, 80.0, 100.0)


def run(
    datasets: dict[str, list[Trajectory]] | None = None,
    *,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    scale: WorkloadScale = SMALL_SCALE,
    seed: int = 2017,
    repeats: int = 1,
) -> ExperimentResult:
    """Measure running time as a function of the error bound."""
    if datasets is None:
        datasets = standard_datasets(scale, seed=seed)
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["dataset", "epsilon", "algorithm", "seconds", "points/s", "speedup vs dp"],
        parameters={"epsilons": list(epsilons), "seed": seed},
    )
    for dataset, fleet in datasets.items():
        for epsilon in epsilons:
            timings: dict[str, float] = {}
            for algorithm in algorithms:
                timed = time_algorithm(algorithm, fleet, epsilon, repeats=repeats)
                timings[algorithm] = timed.seconds
                result.add_row(
                    dataset=dataset,
                    epsilon=epsilon,
                    algorithm=algorithm,
                    seconds=round(timed.seconds, 4),
                    **{"points/s": round(timed.points_per_second)},
                    **{"speedup vs dp": None},
                )
            dp_time = timings.get("dp")
            if dp_time:
                for row in result.rows:
                    if row["dataset"] == dataset and row["epsilon"] == epsilon:
                        algorithm_time = timings.get(str(row["algorithm"]))
                        if algorithm_time:
                            row["speedup vs dp"] = round(dp_time / algorithm_time, 2)
    return result
