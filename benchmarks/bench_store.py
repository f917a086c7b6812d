"""Segment-store guard: zone-map pruning, pushdown and compaction.

A seeded taxi fleet (32 devices x 500 fixes) is simplified once, untimed,
and its segments appended to a fresh store partitioned into eight time
buckets.  Four store paths are then checked, the three reads each against
a reference that does the same job without the feature under test:

- query: one device/time-window query per device over the centre quarter
  of the fleet's time range, against the same queries with
  ``full_scan=True`` (zone maps ignored);
- scan: the same pruned queries against a row-at-a-time reference over
  the same partitions, kept in this file (:meth:`Fleet.row_queries`):
  every row decoded by :func:`decode_chunks_by_row`, filtered by
  ``QuerySpec.matches`` and wrapped as a ``StoredSegment`` — the read
  path before column masks and late materialisation;
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
cancels in the query and aggregate ratios (both sides decode partition
files the same way); the scan ratio's reference shares no decoding with
the store, so it watches the column decoder, mask and materialisation
themselves, and the fix-to-query benchmark's query latencies watch the
whole read path.

Skipped on constrained hosts (see ``_bench_utils.constrained_host``).
"""

from __future__ import annotations

import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np

import pytest

from _bench_utils import constrained_host, median_ratio, timed
from repro import Point, SegmentRecord
from repro.api import Simplifier
from repro.datasets import generate_dataset
from repro.store import QuerySpec, StoredSegment, open_store
from repro.store.layout import DEVICES_DIR, encode_device_dir, partition_data_name

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
    "scan": 0.9,
}
"""Bound on the median feature/reference time ratio, per read shape.  The
query and aggregate bounds are about 1.5x the medians measured under the
row-at-a-time decoder (query 0.50-0.53, aggregate 0.07); with column
scans they read query 0.64 (0.54-0.68) and aggregate 0.044 (0.040-0.047)
over nine probes.  The scan bound is 1.5x its median over nine probes
(0.60; range 0.57-0.63)."""

SCAN_FRACTION = {
    "dp": 100 / 256,
    "opw": 101 / 256,
    "operb": 99 / 256,
    "operb-a": 97 / 256,
    "fbqs": 101 / 256,
}
"""Share of the queried devices' partitions the window queries read: 256
partitions, of which these many meet the window."""


CHUNK_HEADER = struct.Struct("<4sII")
"""Chunk header: magic, chunk version, row count (see ``repro.store.layout``)."""


def decode_chunks_by_row(data: bytes) -> list[tuple[SegmentRecord, float]]:
    """Every ``(record, epsilon)`` row of a partition file, decoded one row
    at a time with each value read by numpy-scalar indexing: the store's
    row decoder before column masks, kept here as the scan reference."""
    rows = []
    offset = 0
    while offset < len(data):
        _, _, n = CHUNK_HEADER.unpack_from(data, offset)
        offset += CHUNK_HEADER.size
        columns = []
        for dtype in ("<f8",) * 6 + ("<i8",) * 4 + ("u1", "<f8"):
            columns.append(np.frombuffer(data, dtype=dtype, count=n, offset=offset))
            offset += n * np.dtype(dtype).itemsize
        sx, sy, st, ex, ey, et, first, last, count, covered, flags, eps = columns
        for i in range(n):
            record = SegmentRecord(
                start=Point(float(sx[i]), float(sy[i]), float(st[i])),
                end=Point(float(ex[i]), float(ey[i]), float(et[i])),
                first_index=int(first[i]),
                last_index=int(last[i]),
                point_count=int(count[i]),
                covered_last_index=int(covered[i]),
                patched_start=bool(flags[i] & 1),
                patched_end=bool(flags[i] & 2),
            )
            rows.append((record, float(eps[i])))
    return rows


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

    def row_queries(self, store) -> list[list[StoredSegment]]:
        """:meth:`queries` one row at a time, over the partitions the
        pruned queries read: decode every row, test it, wrap it."""
        admitted: dict[str, list] = {}
        for key, zonemap in store.partitions():
            if zonemap.may_intersect_window(self.window):
                admitted.setdefault(key.device_id, []).append(key)
        results = []
        for device_id in self.segments:
            spec = QuerySpec(device=device_id, window=self.window)
            matched = []
            for key in admitted.get(device_id, ()):
                path = (
                    store.root
                    / DEVICES_DIR
                    / encode_device_dir(device_id)
                    / partition_data_name(key.bucket)
                )
                for record, epsilon in decode_chunks_by_row(path.read_bytes()):
                    if spec.matches(device_id, epsilon, record):
                        matched.append(StoredSegment(device_id, epsilon, record))
            results.append(matched)
        return results

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


@constrained_host
def test_column_scans_against_row_decoding(fleet, workdir):
    with fleet.build(workdir / "timed-scan") as store:
        ratio = median_ratio(
            timed(lambda: fleet.queries(store)),
            timed(lambda: fleet.row_queries(store)),
            PAIRS,
        )
    assert ratio < MAX_RATIO["scan"], (
        f"column-mask queries took {ratio:.2f}x the row-decoding time "
        f"(allowed {MAX_RATIO['scan']}x)"
    )
