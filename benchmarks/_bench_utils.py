"""Importable helpers shared by the benchmark modules.

These used to live in ``benchmarks/conftest.py``, but pytest treats
``conftest.py`` as a plugin module, not an importable one: with both
``tests/`` and ``benchmarks/`` collected in one session, a bare
``from conftest import ...`` resolves to whichever directory's conftest was
imported first.  Keeping the shared helpers in a regular module (imported as
``from _bench_utils import ...``, as the unit tests import theirs from
``tests/_builders.py``) lets ``pytest tests benchmarks`` collect both
directories in one session; CI checks that with ``--collect-only``.

The timing guards share two helpers from here: the
:data:`constrained_host` skip marker and :func:`median_ratio`, the
median-of-interleaved-pairs ratio every guard compares against its
same-run reference.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import Callable, Mapping

import pytest

from repro.experiments import WorkloadScale

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_SCALE = WorkloadScale("bench", n_trajectories=2, points_per_trajectory=2_000)


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist one experiment table produced during a benchmark run."""
    (results_dir / f"{name}.txt").write_text(text + "\n")


def host_is_constrained(
    environ: Mapping[str, str] = os.environ, cpu_count: int | None = os.cpu_count()
) -> bool:
    """True where wall-clock ratios mean nothing: one CPU, or
    ``REPRO_SKIP_SPEEDUP_ASSERT=1`` (emulated or overloaded hosts).
    ``REPRO_FORCE_SPEEDUP_ASSERT=1`` overrides both."""
    if environ.get("REPRO_FORCE_SPEEDUP_ASSERT") == "1":
        return False
    return environ.get("REPRO_SKIP_SPEEDUP_ASSERT") == "1" or (cpu_count or 1) < 2


constrained_host = pytest.mark.skipif(
    host_is_constrained(),
    reason="constrained host: wall-clock ratios are not meaningful",
)
"""Skip marker for every timing assertion (see :func:`host_is_constrained`)."""


def timed(function: Callable[[], object]) -> Callable[[], float]:
    """Wrap ``function`` into a callable returning its wall time in seconds."""

    def run() -> float:
        started = time.perf_counter()
        function()
        return time.perf_counter() - started

    return run


def median_ratio(
    numerator: Callable[[], float], denominator: Callable[[], float], pairs: int
) -> float:
    """Median of ``numerator() / denominator()`` over back-to-back pairs.

    Each callable runs once per pair and returns the seconds it timed, so
    untimed setup stays inside it but outside the number.  Both sides of a
    pair run within moments of each other, so host load that drifts
    between pairs hits both alike; which side runs first alternates, so
    warm-up favours neither; and the median drops the pairs a load spike
    split.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be at least 1, got {pairs}")
    ratios = []
    for pair in range(pairs):
        if pair % 2:
            below = denominator()
            above = numerator()
        else:
            above = numerator()
            below = denominator()
        ratios.append(above / below)
    return statistics.median(ratios)
