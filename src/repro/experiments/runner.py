"""Experiment infrastructure: results, timing and shared constants.

Every experiment module exposes a ``run(...) -> ExperimentResult`` function.
An :class:`ExperimentResult` is a small self-describing table (columns plus
rows of dictionaries) so the same object can be printed by the benchmarks,
dumped to markdown (see the README's "Efficiency vs the paper") or inspected
programmatically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..api.session import Simplifier
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import PiecewiseRepresentation
from .reporting import format_markdown_table, format_text_table

__all__ = [
    "ExperimentResult",
    "TimedRun",
    "time_algorithm",
    "run_algorithm",
    "PAPER_ALGORITHMS",
    "OPTIMIZATION_PAIRS",
    "DATASET_ORDER",
]

PAPER_ALGORITHMS = ("dp", "fbqs", "operb", "operb-a")
"""The four algorithms compared throughout the paper's evaluation."""

OPTIMIZATION_PAIRS = (("raw-operb", "operb"), ("raw-operb-a", "operb-a"))
"""Raw/optimised pairs used by the ablation experiments (Exp-1.3, Exp-2.2)."""

DATASET_ORDER = ("Taxi", "Truck", "SerCar", "GeoLife")
"""Dataset presentation order used by every table in the paper."""


@dataclass
class ExperimentResult:
    """A self-describing result table for one experiment."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, object]] = field(default_factory=list)
    parameters: dict[str, object] = field(default_factory=dict)
    notes: str = ""

    def add_row(self, **values: object) -> None:
        """Append one row (keyword arguments keyed by column name)."""
        self.rows.append(values)

    def to_text(self) -> str:
        """Render as an aligned plain-text table with a heading."""
        heading = f"{self.experiment_id}: {self.title}"
        if self.parameters:
            params = ", ".join(f"{key}={value}" for key, value in self.parameters.items())
            heading = f"{heading} ({params})"
        table = format_text_table(self.columns, self.rows)
        parts = [heading, table]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def to_markdown(self) -> str:
        """Render as a markdown table with a heading."""
        heading = f"### {self.experiment_id}: {self.title}"
        table = format_markdown_table(self.columns, self.rows)
        parts = [heading, "", table]
        if self.notes:
            parts.extend(["", self.notes])
        return "\n".join(parts)

    def column(self, name: str) -> list[object]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def filter_rows(self, **criteria: object) -> list[dict[str, object]]:
        """Rows matching all the given column=value criteria."""
        matched = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                matched.append(row)
        return matched


@dataclass(frozen=True, slots=True)
class TimedRun:
    """Timing plus outputs of running one algorithm over a set of trajectories."""

    algorithm: str
    seconds: float
    total_points: int
    representations: tuple[PiecewiseRepresentation, ...]

    @property
    def points_per_second(self) -> float:
        """Throughput in data points per second (0 when the run was empty)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.total_points / self.seconds


def run_algorithm(
    algorithm: str,
    trajectories: Sequence[Trajectory],
    epsilon: float,
    *,
    workers: int = 1,
    **kwargs,
) -> list[PiecewiseRepresentation]:
    """Run one registered algorithm over a fleet and collect the outputs.

    Dispatches through the unified fleet executor; ``workers > 1`` spreads
    the fleet over a process pool.  A failing trajectory raises
    :class:`repro.exceptions.FleetExecutionError` (chained from the original
    exception when running serially) rather than the bare algorithm error.
    """
    result = Simplifier(algorithm, epsilon, **kwargs).run_many(trajectories, workers=workers)
    return result.successful()


def time_algorithm(
    algorithm: str,
    trajectories: Sequence[Trajectory],
    epsilon: float,
    *,
    repeats: int = 1,
    **kwargs,
) -> TimedRun:
    """Time one algorithm over a fleet of trajectories.

    Mirrors the paper's measurement protocol: trajectories are compressed one
    by one (serially, so the numbers reflect single-core algorithm cost) and
    only the compression time is counted (workload generation and evaluation
    are excluded).  With ``repeats > 1`` the fastest repetition is reported,
    which reduces interference from the host machine.
    """
    session = Simplifier(algorithm, epsilon, **kwargs)
    best = float("inf")
    representations: list[PiecewiseRepresentation] = []
    for _ in range(max(1, repeats)):
        outputs: list[PiecewiseRepresentation] = []
        start = time.perf_counter()
        for trajectory in trajectories:
            outputs.append(session.run(trajectory))
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            representations = outputs
    total_points = sum(len(trajectory) for trajectory in trajectories)
    return TimedRun(
        algorithm=algorithm,
        seconds=best,
        total_points=total_points,
        representations=tuple(representations),
    )
