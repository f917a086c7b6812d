"""Figure 12 (Exp-1.1) — running time versus trajectory size.

The paper varies the trajectory size from 2,000 to 10,000 points at a fixed
error bound of 40 m and reports the running time of DP, FBQS, OPERB and
OPERB-A on each dataset.  The paper's shape: FBQS/OPERB/OPERB-A scale
linearly, DP super-linearly, and OPERB/OPERB-A are the fastest throughout.
Measured here, OPERB beats FBQS, but the NumPy-vectorised DP is faster than
the one-pass algorithms, which run point by point in pure Python (see the
README's "Efficiency vs the paper").
"""

from __future__ import annotations

from typing import Sequence

from ..datasets.generator import generate_trajectory
from ..datasets.profiles import PROFILES
from .runner import DATASET_ORDER, PAPER_ALGORITHMS, ExperimentResult, time_algorithm

__all__ = ["run"]

EXPERIMENT_ID = "fig12"
TITLE = "Efficiency vs. trajectory size (zeta = 40 m)"

DEFAULT_SIZES = (2_000, 4_000, 6_000, 8_000, 10_000)


def run(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    epsilon: float = 40.0,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    datasets: Sequence[str] = DATASET_ORDER,
    trajectories_per_size: int = 1,
    seed: int = 2017,
    repeats: int = 1,
) -> ExperimentResult:
    """Measure running time as a function of the number of points."""
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=["dataset", "size", "algorithm", "seconds", "points/s", "speedup vs dp"],
        parameters={"epsilon": epsilon, "sizes": list(sizes), "seed": seed},
    )
    for dataset_index, dataset in enumerate(datasets):
        profile = PROFILES[dataset.lower()]
        for size in sizes:
            workload = [
                generate_trajectory(profile, size, seed=seed + dataset_index * 1000 + replica)
                for replica in range(trajectories_per_size)
            ]
            timings: dict[str, float] = {}
            for algorithm in algorithms:
                timed = time_algorithm(algorithm, workload, epsilon, repeats=repeats)
                timings[algorithm] = timed.seconds
                result.add_row(
                    dataset=dataset,
                    size=size,
                    algorithm=algorithm,
                    seconds=round(timed.seconds, 4),
                    **{"points/s": round(timed.points_per_second)},
                    **{"speedup vs dp": None},
                )
            dp_time = timings.get("dp")
            if dp_time:
                for row in result.rows:
                    if row["dataset"] == dataset and row["size"] == size:
                        algorithm_time = timings.get(str(row["algorithm"]))
                        if algorithm_time:
                            row["speedup vs dp"] = round(dp_time / algorithm_time, 2)
    return result
