"""Wire-codec speedup guard (node-backend acceptance criterion).

Asserts that the columnar ``point-batch`` frame beats pickling the raw
``(shard, device, Point)`` record list by at least 3x on a 10k-point
shipped batch, for a full encode+decode round trip.  The columnar frame is
what the process and node backends put on the wire for every hub batch, so
a silent regression here (an accidental per-point Python loop, a dtype
copy gone quadratic) taxes the hottest path in the distributed hub.

Both sides of the comparison do the whole job the transport needs:

- columnar: ``group_records`` + ``encode_frame`` on the sending side,
  ``decode_frame`` on the receiving side (SoA blocks out);
- pickle: ``pickle.dumps`` of the record list, ``pickle.loads``, then the
  same regrouping the shard worker would have to run on the decoded list.

The agreement test pins that the two paths produce identical groups, so
the timing comparison is apples to apples.

Skipped on constrained hosts: single-core machines, or when
``REPRO_SKIP_SPEEDUP_ASSERT=1`` is set (for emulated/overloaded
environments where wall-clock ratios are meaningless).
``REPRO_FORCE_SPEEDUP_ASSERT=1`` overrides the skip either way.
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np
import pytest

from repro.perf.workloads import build_device_log
from repro.streaming import shard_index
from repro.streaming.wire import decode_frame, encode_frame, group_records

REQUIRED_SPEEDUP = 3.0
N_DEVICES = 20
POINTS_PER_DEVICE = 500  # 20 x 500 = one 10k-point shipped batch
SHARDS = 8

_forced = os.environ.get("REPRO_FORCE_SPEEDUP_ASSERT") == "1"
constrained_host = pytest.mark.skipif(
    not _forced
    and (os.environ.get("REPRO_SKIP_SPEEDUP_ASSERT") == "1" or (os.cpu_count() or 1) < 2),
    reason="constrained host: wall-clock speedup ratios are not meaningful",
)


@pytest.fixture(scope="module")
def shipped_records():
    """One hub-shaped batch: interleaved per-device records, shard-tagged."""
    log = build_device_log("taxi", N_DEVICES, POINTS_PER_DEVICE, seed=2017)
    return [(shard_index(device, SHARDS), device, point) for device, point in log]


def _best_wall(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def _pickle_round_trip(records) -> list:
    shipped = pickle.loads(pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL))
    return group_records(shipped)  # the worker still has to regroup


def _columnar_round_trip(records) -> list:
    return decode_frame(encode_frame("point-batch", group_records(records)))[1]


@constrained_host
def test_columnar_frames_beat_pickle(shipped_records):
    pickled = _best_wall(lambda: _pickle_round_trip(shipped_records), repeats=5)
    columnar = _best_wall(lambda: _columnar_round_trip(shipped_records), repeats=5)
    speedup = pickled / columnar
    assert speedup >= REQUIRED_SPEEDUP, (
        f"columnar point-batch round trip only {speedup:.1f}x faster than "
        f"pickle on a {N_DEVICES * POINTS_PER_DEVICE}-point batch "
        f"(required {REQUIRED_SPEEDUP}x)"
    )


def test_columnar_frames_are_smaller_than_pickle(shipped_records):
    """Bytes shipped matter as much as CPU: the frame must not be bloated."""
    frame = encode_frame("point-batch", group_records(shipped_records))
    pickled = pickle.dumps(shipped_records, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(frame) < len(pickled)


def test_both_paths_produce_identical_groups(shipped_records):
    """The speed comparison above only counts if both paths agree."""
    columnar = _columnar_round_trip(shipped_records)
    pickled = _pickle_round_trip(shipped_records)
    assert len(columnar) == len(pickled)
    for (shard_a, device_a, block_a), (shard_b, device_b, block_b) in zip(
        columnar, pickled
    ):
        assert (shard_a, device_a) == (shard_b, device_b)
        np.testing.assert_array_equal(block_a.xs, block_b.xs)
        np.testing.assert_array_equal(block_a.ys, block_b.ys)
        np.testing.assert_array_equal(block_a.ts, block_b.ts)
