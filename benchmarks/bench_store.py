"""Segment-store guard: zone-map pruning, pushdown and compaction.

A seeded taxi fleet (32 devices x 500 fixes) is simplified once, untimed,
and its segments appended to a fresh store partitioned into eight time
buckets.  Three store paths are then checked, the two reads each against
a reference that does the same job without the feature under test:

- query: one device/time-window query per device over the centre quarter
  of the fleet's time range, against the same queries with
  ``full_scan=True`` (zone maps ignored);
- aggregate: tumbling window aggregates whose one window covers every
  partition (fleet-wide and per device), against the same aggregates with
  ``pushdown=False`` (rows scanned instead of zone-map sidecars);
- compact: the store is built from 16-segment appends, so every partition
  holds many chunks, then compacted.  Compaction is checked, not timed:
  it is bound by file writes, and on a shared 2-vCPU host its ratio to
  full-scan reads drifted from 2.7 to 7 within an hour (to appends of the
  same store, from 0.9 to 0.6), too far to bound.

The deterministic half, pinned by the tier-1 suite
(``tests/test_benchmark_guards.py``) for each of :data:`ALGORITHMS`, fixes
what the store reads: a query reads exactly the device's partitions whose
zone map meets the window (:data:`SCAN_FRACTION`, 97/256 to 101/256), the
covering aggregates read no partition at all (scan fraction 0),
compaction leaves every answer and scan count unchanged, and each feature
returns what its reference returns.  The timed half asserts the median
feature/reference ratio over back-to-back pairs stays under its bound in
:data:`MAX_RATIO`, about 1.5x the medians measured on a shared 2-vCPU x86
host under CPython 3.11.  It stands in for the store cells of the retired
``repro.perf`` baseline.  A slowdown shared by a feature and its reference
(say, in decoding a partition file) cancels in these ratios; the
fix-to-query benchmark's query latencies watch that.

Skipped on constrained hosts (see ``_bench_utils.constrained_host``).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

from _bench_utils import constrained_host, median_ratio, timed
from repro.api import Simplifier
from repro.datasets import generate_dataset
from repro.store import open_store

ALGORITHMS = ("dp", "opw", "operb", "operb-a", "fbqs")
TIMED_ALGORITHM = "operb"
EPSILON = 40.0
BUCKETS = 8
QUERY_SPAN = 0.25
COMPACT_BATCH = 16
PAIRS = 9

MAX_RATIO = {
    "query": 0.75,
    "aggregate": 0.11,
}
"""Bound on the median feature/reference time ratio, per read shape
(measured medians: query 0.50-0.53, aggregate 0.07)."""

SCAN_FRACTION = {
    "dp": 100 / 256,
    "opw": 101 / 256,
    "operb": 99 / 256,
    "operb-a": 97 / 256,
    "fbqs": 101 / 256,
}
"""Share of the queried devices' partitions the window queries read: 256
partitions, of which these many meet the window."""


class Fleet:
    """One algorithm's simplified fleet and the windows the checks use."""

    def __init__(self, algorithm: str) -> None:
        simplifier = Simplifier(algorithm, EPSILON)
        trajectories = generate_dataset(
            "taxi", n_trajectories=32, points_per_trajectory=500, seed=2017
        )
        self.segments = {
            f"dev-{i:04d}": simplifier.run(trajectory).segments
            for i, trajectory in enumerate(trajectories)
        }
        times = [
            t
            for segments in self.segments.values()
            for record in segments
            for t in (record.start.t, record.end.t)
        ]
        low, high = min(times), max(times)
        span = high - low
        self.time_bucket = span / BUCKETS
        self.window = (
            low + span * (0.5 - QUERY_SPAN / 2.0),
            low + span * (0.5 + QUERY_SPAN / 2.0),
        )
        # One unit past both ends, so the grid's trailing window (starting
        # exactly at the upper edge) meets no partition and none is demoted
        # to a scan.
        self.covering = (low - 1.0, high + 1.0)

    def build(self, root: Path, batch: int | None = None):
        store = open_store(root, time_bucket=self.time_bucket)
        for device_id, segments in self.segments.items():
            step = batch or max(len(segments), 1)
            for first in range(0, len(segments), step):
                store.append(device_id, segments[first : first + step], epsilon=EPSILON)
        return store

    def queries(self, store, *, full_scan: bool = False) -> list:
        return [
            store.query(device=device_id, window=self.window, full_scan=full_scan)
            for device_id in self.segments
        ]

    def aggregates(self, store, *, pushdown: bool = True) -> list:
        low, high = self.covering
        kwargs = dict(width=high - low, window=self.covering, pushdown=pushdown)
        return [store.window_aggregates(**kwargs)] + [
            store.window_aggregates(device=device_id, **kwargs)
            for device_id in self.segments
        ]


def scan_fraction(results) -> float:
    """Partitions read over partitions the device predicates admit."""
    return sum(r.partitions_scanned for r in results) / sum(
        r.partitions_total for r in results
    )


@pytest.fixture(scope="module")
def workdir():
    path = Path(tempfile.mkdtemp(prefix="bench-store-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def fleet():
    return Fleet(TIMED_ALGORITHM)


@constrained_host
def test_pruned_queries_against_full_scans(fleet, workdir):
    with fleet.build(workdir / "timed-query") as store:
        ratio = median_ratio(
            timed(lambda: fleet.queries(store)),
            timed(lambda: fleet.queries(store, full_scan=True)),
            PAIRS,
        )
    assert ratio < MAX_RATIO["query"], (
        f"pruned queries took {ratio:.2f}x the full-scan time "
        f"(allowed {MAX_RATIO['query']}x)"
    )


@constrained_host
def test_pushdown_aggregates_against_row_scans(fleet, workdir):
    with fleet.build(workdir / "timed-aggregate") as store:
        ratio = median_ratio(
            timed(lambda: fleet.aggregates(store)),
            timed(lambda: fleet.aggregates(store, pushdown=False)),
            PAIRS,
        )
    assert ratio < MAX_RATIO["aggregate"], (
        f"pushdown aggregates took {ratio:.2f}x the row-scan time "
        f"(allowed {MAX_RATIO['aggregate']}x)"
    )
