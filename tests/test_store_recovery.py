"""Tests for the store's crash-proofing (``repro.store``).

Covers the single-writer lock protocol (``O_EXCL`` lock file, in-process
registry, stale-lock takeover), torn-tail recovery deferred behind a live
writer's lock, stale temp-file sweeping at open, partition compaction
(byte-identical queries, crash-debris repair) and zone-map aggregate
pushdown (fully-covered windows answered at scan fraction 0).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import InvalidParameterError, Point, SegmentRecord
from repro.exceptions import StoreError
from repro.store import PartitionKey, StoreLock, open_store
from repro.store.layout import (
    CHUNK_VERSION,
    DEVICES_DIR,
    LOCK_NAME,
    MANIFEST_NAME,
    ZoneMap,
    encode_chunk,
    encode_device_dir,
    partition_data_name,
    partition_zonemap_name,
    read_zonemap,
    write_zonemap,
)


def seg(t0: float, t1: float, *, x0=0.0, y0=0.0, x1=100.0, y1=0.0, first=0, last=1):
    """A finalised segment spanning ``[t0, t1]`` (geometry configurable)."""
    return SegmentRecord(
        start=Point(x0, y0, t0),
        end=Point(x1, y1, t1),
        first_index=first,
        last_index=last,
        point_count=last - first + 1,
        covered_last_index=last,
    )


def partition_path(root, device_id: str, bucket: int):
    return root / DEVICES_DIR / encode_device_dir(device_id) / partition_data_name(bucket)


def zonemap_path(root, device_id: str, bucket: int):
    return (
        root / DEVICES_DIR / encode_device_dir(device_id) / partition_zonemap_name(bucket)
    )


def dead_pid() -> int:
    """The pid of a process that has already exited."""
    completed = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(completed.stdout)


class TestSingleWriterLock:
    def test_second_eager_writer_is_rejected(self, tmp_path):
        first = open_store(tmp_path / "s", writer=True)
        assert first.is_writer
        with pytest.raises(StoreError, match="locked"):
            open_store(tmp_path / "s", writer=True)
        first.close()
        assert not first.is_writer
        second = open_store(tmp_path / "s", writer=True)
        assert second.is_writer
        second.close()

    def test_lazy_writer_contends_on_first_append(self, tmp_path):
        writer = open_store(tmp_path / "s", writer=True)
        reader = open_store(tmp_path / "s")  # readers never contend
        assert not reader.is_writer
        with pytest.raises(StoreError, match="locked"):
            reader.append("cab-1", seg(0.0, 10.0), epsilon=5.0)
        writer.close()
        assert reader.append("cab-1", seg(0.0, 10.0), epsilon=5.0) == 1
        reader.close()

    def test_lock_file_names_the_holder(self, tmp_path):
        import os

        with open_store(tmp_path / "s", writer=True) as store:
            payload = json.loads((store.root / LOCK_NAME).read_text())
            assert payload["pid"] == os.getpid()
            assert isinstance(payload["created"], float)
        assert not (tmp_path / "s" / LOCK_NAME).exists()

    def test_stale_lock_of_dead_pid_is_taken_over(self, tmp_path):
        open_store(tmp_path / "s").close()
        (tmp_path / "s" / LOCK_NAME).write_text(
            json.dumps({"pid": dead_pid(), "created": 0.0, "host": "gone"})
        )
        with open_store(tmp_path / "s", writer=True) as store:
            assert store.is_writer

    def test_own_pid_stale_file_is_reclaimed(self, tmp_path):
        import os

        # A lock file naming our pid but absent from the in-process registry
        # is debris from a previous process that shared the pid.
        open_store(tmp_path / "s").close()
        (tmp_path / "s" / LOCK_NAME).write_text(
            json.dumps({"pid": os.getpid(), "created": 0.0, "host": "before"})
        )
        with open_store(tmp_path / "s", writer=True) as store:
            assert store.is_writer

    def test_malformed_lock_payload_is_reclaimed(self, tmp_path):
        open_store(tmp_path / "s").close()
        (tmp_path / "s" / LOCK_NAME).write_text("not json at all")
        with open_store(tmp_path / "s", writer=True) as store:
            assert store.is_writer

    def test_live_foreign_pid_blocks(self, tmp_path):
        open_store(tmp_path / "s").close()
        # pid 1 is always alive and never this test process.
        (tmp_path / "s" / LOCK_NAME).write_text(
            json.dumps({"pid": 1, "created": 0.0, "host": "other"})
        )
        with pytest.raises(StoreError, match="live writer pid 1"):
            open_store(tmp_path / "s", writer=True)

    def test_stale_reclaim_leaves_no_claim_debris(self, tmp_path):
        open_store(tmp_path / "s").close()
        (tmp_path / "s" / LOCK_NAME).write_text(
            json.dumps({"pid": dead_pid(), "created": 0.0, "host": "gone"})
        )
        with open_store(tmp_path / "s", writer=True) as store:
            assert store.is_writer
            assert list((tmp_path / "s").glob(LOCK_NAME + ".reclaim.*")) == []

    def test_reclaim_loser_yields_to_the_winner(self, tmp_path, monkeypatch):
        # Two processes read the same dead pid and race to reclaim.  The
        # loser's rename finds the stale file already claimed — and by the
        # time it retries, the winner's fresh lock (a live holder) is in
        # place.  The loser must fail, not usurp it.
        import repro.store.locking as locking

        root = tmp_path / "s"
        open_store(root).close()
        lock_path = root / LOCK_NAME
        lock_path.write_text(
            json.dumps({"pid": dead_pid(), "created": 0.0, "host": "gone"})
        )

        def racing_rename(src, dst, **kwargs):
            if Path(src) == lock_path:
                # The competing reclaimer renamed the stale file away and
                # already re-created the lock as a live writer (pid 1).
                lock_path.write_text(
                    json.dumps({"pid": 1, "created": 0.0, "host": "other"})
                )
                raise FileNotFoundError(src)
            return os.rename(src, dst, **kwargs)  # pragma: no cover

        monkeypatch.setattr(locking.os, "rename", racing_rename)
        lock = StoreLock(root)
        with pytest.raises(StoreError, match="reclaiming a stale lock"):
            lock.acquire()
        assert not lock.held
        # The winner's lock file survived the loser's attempt untouched.
        assert json.loads(lock_path.read_text())["pid"] == 1

    def test_release_is_idempotent(self, tmp_path):
        (tmp_path / "s").mkdir()
        lock = StoreLock(tmp_path / "s")
        lock.acquire()
        lock.acquire()  # re-entrant no-op for the same instance
        lock.release()
        lock.release()
        assert not lock.held

    def test_finalizer_release_during_acquire_does_not_deadlock(self, tmp_path):
        # An abandoned Store releases its lock via a GC finalizer, and GC
        # can run at any allocation — including inside acquire()'s registry
        # critical section.  The injectable clock fires exactly there, so it
        # can stand in for the finalizer: releasing *another* lock mid-acquire
        # must complete rather than deadlock on the registry guard.
        (tmp_path / "abandoned").mkdir()
        abandoned = StoreLock(tmp_path / "abandoned")
        abandoned.acquire()

        (tmp_path / "s").mkdir()

        def clock_that_finalizes() -> float:
            abandoned.release()
            return 0.0

        lock = StoreLock(tmp_path / "s", clock=clock_that_finalizes)
        worker = threading.Thread(target=lock.acquire, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "acquire deadlocked against a finalizer release"
        assert lock.held and not abandoned.held
        lock.release()


class TestRecoveryUnderContention:
    def test_torn_tail_repair_defers_behind_a_live_writer(self, tmp_path):
        writer = open_store(tmp_path / "s", time_bucket=100.0, writer=True)
        writer.append("cab-1", [seg(0.0, 40.0), seg(50.0, 90.0)], epsilon=5.0)
        path = partition_path(writer.root, "cab-1", 0)
        committed = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # torn tail (crash mid-append)

        reader = open_store(tmp_path / "s")
        # The writer holds the lock, so the repair stays logical: reads
        # clamp to the committed prefix, the file keeps its torn tail.
        assert reader.recovery.damaged == 1
        repair = reader.recovery.repairs[0]
        assert not repair.truncated
        assert repair.valid_bytes == committed
        assert path.stat().st_size == committed + 3
        assert reader.n_segments == 2
        assert len(reader.query(device="cab-1").segments) == 2

        # Once the writer is gone, the reader's first append flushes the
        # deferred truncation before writing new data.
        writer.close()
        reader.append("cab-1", seg(110.0, 150.0), epsilon=5.0)
        assert reader.n_segments == 3
        reopened = open_store(tmp_path / "s")
        assert reopened.recovery.damaged == 0
        assert len(reopened.query(device="cab-1").segments) == 3
        reader.close()

    def test_deferred_repair_does_not_truncate_a_committed_tail(self, tmp_path):
        # A reader that opens while a live writer is mid-append records the
        # writer's half-flushed chunk as a torn tail.  If the writer then
        # commits it (and appends more) before the reader's deferred repair
        # runs, truncating at the remembered offset would destroy durably
        # committed data — the repair must re-scan under the lock instead.
        writer = open_store(tmp_path / "s", time_bucket=100.0, writer=True)
        writer.append("cab-1", seg(0.0, 40.0), epsilon=5.0)
        path = partition_path(writer.root, "cab-1", 0)
        zm_path = zonemap_path(writer.root, "cab-1", 0)

        # The live writer is mid-append: the covering zone map has landed,
        # the chunk is half-flushed.
        tail = [seg(50.0, 90.0, first=2, last=3)]
        encoded = encode_chunk(tail, 5.0)
        write_zonemap(zm_path, read_zonemap(zm_path).merge(ZoneMap.of_rows([(record, 5.0) for record in tail])))
        with open(path, "ab") as handle:
            handle.write(encoded[: len(encoded) // 2])

        reader = open_store(tmp_path / "s")
        assert reader.recovery.damaged == 1
        assert not reader.recovery.repairs[0].truncated

        # The writer commits its in-flight chunk, appends one more batch,
        # and releases the lock.
        with open(path, "ab") as handle:
            handle.write(encoded[len(encoded) // 2 :])
        writer.append("cab-1", seg(95.0, 99.0, first=4, last=5), epsilon=5.0)
        writer.close()

        # The reader's first append flushes the deferred repair; nothing
        # the writer committed may be lost to the stale torn offset.
        reader.append("cab-1", seg(10.0, 20.0, first=6, last=7), epsilon=5.0)
        assert len(reader.query(device="cab-1").segments) == 4
        reader.close()
        reopened = open_store(tmp_path / "s")
        assert reopened.recovery.damaged == 0
        assert len(reopened.query(device="cab-1").segments) == 4

    def test_open_time_repair_rescans_under_the_lock(self, tmp_path, monkeypatch):
        # Between the open-time integrity scan and the transient lock
        # acquisition, the writer that produced the "torn" tail can commit
        # it.  The repair must trust only a scan taken under the lock.
        store = open_store(tmp_path / "s", time_bucket=100.0, writer=True)
        store.append("cab-1", seg(0.0, 40.0), epsilon=5.0)
        path = partition_path(store.root, "cab-1", 0)
        zm_path = zonemap_path(store.root, "cab-1", 0)
        store.close()

        tail = [seg(50.0, 90.0, first=2, last=3)]
        encoded = encode_chunk(tail, 5.0)
        write_zonemap(zm_path, read_zonemap(zm_path).merge(ZoneMap.of_rows([(record, 5.0) for record in tail])))
        with open(path, "ab") as handle:
            handle.write(encoded[: len(encoded) // 2])

        real_acquire = StoreLock.acquire
        committed = []

        def acquire_after_commit(self):
            if not committed:
                # The racing writer commits its in-flight chunk and exits
                # between the integrity scan and this acquisition.
                with open(path, "ab") as handle:
                    handle.write(encoded[len(encoded) // 2 :])
                committed.append(True)
            real_acquire(self)

        full_size = path.stat().st_size + len(encoded) - len(encoded) // 2
        monkeypatch.setattr(StoreLock, "acquire", acquire_after_commit)
        reopened = open_store(tmp_path / "s")
        assert reopened.recovery.damaged == 0
        assert path.stat().st_size == full_size  # nothing truncated
        assert len(reopened.query(device="cab-1").segments) == 2

    def test_query_clamps_a_concurrent_half_flushed_chunk(self, tmp_path):
        # The partition file is re-read on every query, so a writer's
        # half-flushed chunk can become visible after a clean open; the
        # read must clamp to the committed prefix, not fail the query.
        writer = open_store(tmp_path / "s", time_bucket=100.0, writer=True)
        writer.append("cab-1", [seg(0.0, 40.0), seg(50.0, 90.0)], epsilon=5.0)
        reader = open_store(tmp_path / "s")
        assert reader.recovery.damaged == 0
        path = partition_path(tmp_path / "s", "cab-1", 0)
        with open(path, "ab") as handle:
            handle.write(b"\x99" * 7)  # a concurrent writer's torn bytes
        assert len(reader.query(device="cab-1").segments) == 2
        writer.close()

    def test_query_raises_on_a_future_chunk_version_appended_after_open(
        self, tmp_path
    ):
        # Reads salvage a torn tail away, but a chunk from a newer format is
        # valid data this build cannot read: it must fail the query, not
        # vanish from it.
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", [seg(0.0, 40.0), seg(50.0, 90.0)], epsilon=5.0)
        assert store.recovery.damaged == 0
        future = bytearray(encode_chunk([seg(60.0, 95.0)], 5.0))
        future[4:8] = (CHUNK_VERSION + 1).to_bytes(4, "little")
        with open(partition_path(store.root, "cab-1", 0), "ab") as handle:
            handle.write(bytes(future))
        with pytest.raises(StoreError, match="unsupported chunk version"):
            store.query(device="cab-1")
        with pytest.raises(StoreError, match="unsupported chunk version"):
            store.window_aggregates(width=100.0, pushdown=False)
        with pytest.raises(StoreError, match="unsupported chunk version"):
            store.window_aggregates(width=10.0, window=(0.0, 100.0))

    def test_recovery_report_serialises(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", seg(0.0, 40.0), epsilon=5.0)
        path = partition_path(store.root, "cab-1", 0)
        path.write_bytes(path.read_bytes()[:-4])
        store.close()
        reopened = open_store(tmp_path / "s")
        payload = reopened.recovery.as_dict()
        assert payload["damaged"] == 1
        assert payload["repairs"][0]["device"] == "cab-1"
        assert payload["repairs"][0]["truncated"] is True
        assert payload["repairs"][0]["dropped_bytes"] > 0


class TestOpenStoreHygiene:
    def test_regular_file_path_is_a_store_error(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("plain file")
        with pytest.raises(StoreError, match="not a directory"):
            open_store(target)
        with pytest.raises(StoreError, match="not a directory"):
            open_store(target, create=False)

    def test_stale_tmp_files_are_swept_on_open(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", seg(0.0, 40.0), epsilon=5.0)
        store.close()
        root = tmp_path / "s"
        manifest_tmp = root / (MANIFEST_NAME + ".tmp")
        manifest_tmp.write_text("{}")
        device_tmp = root / DEVICES_DIR / encode_device_dir("cab-1") / "b0.zm.json.tmp"
        device_tmp.write_text("{}")
        reopened = open_store(root)
        assert not manifest_tmp.exists()
        assert not device_tmp.exists()
        assert reopened.n_segments == 1

    def test_lock_reclaim_debris_is_swept_on_open(self, tmp_path):
        # A reclaimer that crashed between renaming the stale lock and
        # unlinking its claim file leaves LOCK.reclaim.<pid> debris behind.
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.close()
        debris = tmp_path / "s" / (LOCK_NAME + ".reclaim.99999")
        debris.write_text(json.dumps({"pid": 99999, "created": 0.0, "host": "gone"}))
        open_store(tmp_path / "s").close()
        assert not debris.exists()

    def test_foreign_root_files_survive_the_sweep(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.close()
        foreign = tmp_path / "s" / "data.tmp"
        foreign.write_text("not ours")
        open_store(tmp_path / "s")
        assert foreign.exists()

    def test_crash_mid_init_directory_reopens(self, tmp_path):
        # Crash debris: the lock file and an empty devices/ tree landed,
        # the manifest never did.
        root = tmp_path / "s"
        (root / DEVICES_DIR).mkdir(parents=True)
        (root / LOCK_NAME).write_text(
            json.dumps({"pid": dead_pid(), "created": 0.0, "host": "gone"})
        )
        with open_store(root, time_bucket=100.0, writer=True) as store:
            assert store.is_writer
            assert store.append("cab-1", seg(0.0, 10.0), epsilon=5.0) == 1


class TestCompaction:
    def test_multi_chunk_partition_compacts_to_one_chunk(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        for t in (0.0, 20.0, 40.0, 60.0):
            store.append("cab-1", seg(t, t + 10.0), epsilon=5.0)
        before = [
            s.record.to_dict() for s in store.query(device="cab-1").segments
        ]
        report = store.compact()
        assert report.partitions_considered == 1
        assert report.partitions_compacted == 1
        assert report.chunks_merged == 3
        item = report.compacted[0]
        assert item.chunks_before == 4 and item.chunks_after == 1
        assert not item.repaired
        after = [s.record.to_dict() for s in store.query(device="cab-1").segments]
        assert after == before
        # The compacted layout survives a reopen identically.
        store.close()
        reopened = open_store(tmp_path / "s")
        assert [
            s.record.to_dict() for s in reopened.query(device="cab-1").segments
        ] == before

    def test_min_chunks_leaves_small_partitions_alone(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", [seg(0.0, 10.0), seg(20.0, 30.0)], epsilon=5.0)
        assert store.compact().partitions_compacted == 0  # one healthy chunk
        store.append("cab-1", seg(40.0, 50.0), epsilon=5.0)
        assert store.compact(min_chunks=3).partitions_compacted == 0
        assert store.compact(min_chunks=2).partitions_compacted == 1
        with pytest.raises(InvalidParameterError, match="min_chunks"):
            store.compact(min_chunks=0)
        store.close()

    def test_device_filter_restricts_the_pass(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        for device in ("cab-1", "cab-2"):
            for t in (0.0, 20.0):
                store.append(device, seg(t, t + 10.0), epsilon=5.0)
        report = store.compact(device="cab-2")
        assert report.partitions_considered == 1
        assert report.compacted[0].key == PartitionKey("cab-2", 0)
        store.close()

    def test_multi_epsilon_partition_compacts_losslessly(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", seg(0.0, 10.0), epsilon=5.0)
        store.append("cab-1", seg(20.0, 30.0), epsilon=25.0)
        store.compact()
        result = store.query(device="cab-1")
        assert [s.epsilon for s in result.segments] == [5.0, 25.0]
        assert len(store.query(epsilon=25.0).segments) == 1
        store.close()

    def test_mixed_epsilon_compaction_pins_the_sidecar(self, tmp_path):
        # Appends and compaction build their sidecars with the same zone-map
        # builder; the bytes are pinned so neither writer can drift.
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append(
            "cab-1",
            [
                seg(0.0, 10.0, x0=-3.5, y0=2.0, x1=40.25, y1=-7.0, last=4),
                seg(10.0, 30.0, x0=40.25, y0=-7.0, x1=61.0, y1=0.1, first=4, last=9),
            ],
            epsilon=25.0,
        )
        store.append(
            "cab-1", seg(30.0, 55.5, x0=61.0, y0=0.1, x1=12.0, y1=88.8, first=9, last=12),
            epsilon=5.0,
        )
        store.append(
            "cab-1", seg(55.5, 99.0, x0=12.0, y0=88.8, x1=-20.0, y1=3.0, first=12, last=20),
            epsilon=12.5,
        )
        sidecar = zonemap_path(tmp_path / "s", "cab-1", 0)
        pinned = (
            '{\n  "chunks": %d,\n  "epsilons": [\n    5.0,\n    12.5,\n    25.0\n  ],\n'
            '  "format": 1,\n  "points": 24,\n  "segments": 4,\n  "t_max": 99.0,\n'
            '  "t_min": 0.0,\n  "total_length": 259.50489286923937,\n  "x_max": 61.0,\n'
            '  "x_min": -20.0,\n  "y_max": 88.8,\n  "y_min": -7.0\n}\n'
        )
        assert sidecar.read_text() == pinned % 3
        assert store.compact().partitions_compacted == 1
        assert sidecar.read_text() == pinned % 1
        store.close()

    def test_crash_window_partition_is_dropped(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", seg(0.0, 10.0), epsilon=5.0)
        store.append("cab-1", seg(250.0, 260.0), epsilon=5.0)
        store.close()
        # Crash window: the covering sidecar landed, the data append never
        # did.  Deleting the data file reproduces it exactly.
        partition_path(tmp_path / "s", "cab-1", 2).unlink()
        store = open_store(tmp_path / "s")
        assert store.n_partitions == 2 and store.n_segments == 1
        report = store.compact()
        assert report.partitions_removed == 1
        assert not zonemap_path(tmp_path / "s", "cab-1", 2).exists()
        assert store.n_partitions == 1
        store.close()

    def test_compaction_repairs_a_salvaged_partition(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", [seg(0.0, 40.0), seg(50.0, 90.0)], epsilon=5.0)
        store.append("cab-1", seg(10.0, 70.0), epsilon=5.0)
        store.close()
        path = partition_path(tmp_path / "s", "cab-1", 0)
        path.write_bytes(path.read_bytes()[:-6])  # tear the last chunk

        store = open_store(tmp_path / "s")
        assert store.recovery.damaged == 1
        # The sidecar still covers the lost chunk: over-approximating
        # counts disqualify the partition from pushdown until repaired.
        aggregates = store.window_aggregates(width=200.0, window=(-1.0, 199.0))
        assert aggregates.partitions_pushdown == 0
        assert aggregates.windows[0].segments == 2

        report = store.compact()
        assert report.partitions_compacted == 1
        assert report.compacted[0].repaired
        aggregates = store.window_aggregates(width=200.0, window=(-1.0, 199.0))
        assert aggregates.partitions_pushdown == 1
        assert aggregates.partitions_scanned == 0
        assert aggregates.windows[0].segments == 2
        store.close()


class TestAppendAtomicity:
    @staticmethod
    def _fail_second_zonemap_write(monkeypatch):
        """Patch the store's zone-map write to fail once, on its 2nd call."""
        import repro.store.store as store_module

        real = store_module.write_zonemap
        calls = []

        def failing_write_zonemap(path, zonemap):
            calls.append(path)
            if len(calls) == 2:
                raise StoreError("injected zone-map failure")
            real(path, zonemap)

        monkeypatch.setattr(store_module, "write_zonemap", failing_write_zonemap)

    def test_failed_multi_bucket_append_rolls_back(self, tmp_path, monkeypatch):
        # append writes one chunk per time bucket in sequence; a failure on
        # the second bucket must roll the first bucket's chunk back, so a
        # retry can re-send the whole batch without duplicating segments.
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", seg(0.0, 10.0), epsilon=5.0)
        self._fail_second_zonemap_write(monkeypatch)
        batch = [
            seg(120.0, 130.0, first=2, last=3),
            seg(250.0, 260.0, first=4, last=5),
        ]
        with pytest.raises(StoreError, match="injected"):
            store.append("cab-1", batch, epsilon=5.0)
        # Nothing from the failed call is visible — not even its first bucket.
        assert store.n_segments == 1
        assert len(store.query(device="cab-1").segments) == 1
        assert store.append("cab-1", batch, epsilon=5.0) == 2
        assert len(store.query(device="cab-1").segments) == 3
        store.close()
        reopened = open_store(tmp_path / "s")
        assert reopened.recovery.damaged == 0
        assert len(reopened.query(device="cab-1").segments) == 3

    def test_sink_retry_after_failed_append_does_not_duplicate(
        self, tmp_path, monkeypatch
    ):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        sink = store.sink("cab-1", epsilon=5.0, buffer_size=100)
        sink.accept(seg(10.0, 20.0))
        sink.accept(seg(150.0, 160.0, first=2, last=3))
        self._fail_second_zonemap_write(monkeypatch)
        with pytest.raises(StoreError, match="injected"):
            sink.flush()
        # The batch survives the failure in the buffer, unwritten.
        assert sink.pending == 2 and sink.segments_written == 0
        assert store.n_segments == 0
        sink.close()  # retries the flush
        assert sink.segments_written == 2
        assert len(store.query(device="cab-1").segments) == 2
        store.close()


class TestAggregatePushdown:
    @pytest.fixture
    def store(self, tmp_path):
        store = open_store(tmp_path / "segments", time_bucket=100.0)
        store.append(
            "cab-1", [seg(0.0, 40.0), seg(50.0, 90.0), seg(150.0, 190.0)], epsilon=5.0
        )
        store.append("cab-2", [seg(20.0, 60.0), seg(210.0, 260.0)], epsilon=5.0)
        yield store
        store.close()

    def test_fully_covered_windows_scan_nothing(self, store):
        aggregates = store.window_aggregates(width=400.0, window=(-1.0, 399.0))
        assert aggregates.partitions_pushdown == store.n_partitions
        assert aggregates.partitions_scanned == 0
        assert aggregates.scan_fraction == 0.0
        assert aggregates.windows[0].segments == 5
        assert aggregates.windows[0].points == 10
        assert aggregates.windows[0].devices == 2
        assert math.isclose(aggregates.windows[0].total_length, 500.0)

    def test_pushdown_equals_the_scan_path(self, store):
        pushed = store.window_aggregates(width=100.0, window=(-10.0, 290.0))
        scanned = store.window_aggregates(
            width=100.0, window=(-10.0, 290.0), pushdown=False
        )
        assert scanned.partitions_pushdown == 0
        assert len(pushed.windows) == len(scanned.windows)
        for via_sidecar, via_rows in zip(pushed.windows, scanned.windows):
            assert via_sidecar.segments == via_rows.segments
            assert via_sidecar.points == via_rows.points
            assert via_sidecar.devices == via_rows.devices
            assert via_sidecar.device_ids == via_rows.device_ids
            assert math.isclose(
                via_sidecar.total_length, via_rows.total_length, abs_tol=1e-9
            )

    def test_partially_covered_partition_demotes_to_scan(self, store):
        # This 50-wide grid splits bucket 0 ([0, 90]) across two windows,
        # so it must be scanned; bucket 1 ([150, 190]) falls strictly
        # inside the [145, 195] window and stays pushed down.
        aggregates = store.window_aggregates(
            width=50.0, device="cab-1", window=(-5.0, 199.0)
        )
        assert aggregates.partitions_scanned == 1
        assert aggregates.partitions_pushdown == 1
        totals = sum(window.segments for window in aggregates.windows)
        by_rows = store.window_aggregates(
            width=50.0, device="cab-1", window=(-5.0, 199.0), pushdown=False
        )
        assert totals == sum(window.segments for window in by_rows.windows)

    def test_epsilon_predicate_disables_pushdown_on_mixed_partitions(self, store):
        store.append("cab-1", seg(160.0, 180.0), epsilon=25.0)
        aggregates = store.window_aggregates(
            width=400.0, device="cab-1", window=(-1.0, 399.0), epsilon=25.0
        )
        # Bucket 1 now holds two epsilons; only rows can tell them apart.
        assert aggregates.partitions_scanned == 1
        assert aggregates.partitions_pushdown == 0
        assert aggregates.windows[0].segments == 1

    def test_accounting_sums_to_the_partition_total(self, store):
        aggregates = store.window_aggregates(width=400.0, window=(-1.0, 399.0))
        assert (
            aggregates.partitions_scanned
            + aggregates.partitions_pushdown
            + aggregates.partitions_skipped
            == aggregates.partitions_total
        )
        payload = aggregates.as_dict()
        assert payload["partitions_pushdown"] == aggregates.partitions_pushdown
        assert payload["scan_fraction"] == aggregates.scan_fraction
