"""Tests for the queryable segment store (``repro.store``).

Covers the on-disk layout (manifest, partitioning, zone-map sidecars, the
columnar chunk codec), the typed query surface (pruning accounting,
predicates, window aggregates), the :class:`StoreSink` live-ingest path,
and the hub/executor integration — including the headline acceptance
check: a device/time-window query on a partitioned synthetic fleet reads
well under 30% of the partitions while staying byte-identical to a forced
full scan.
"""

from __future__ import annotations

import json

import pytest

from repro import InvalidParameterError, Point, SegmentRecord, Simplifier
from repro.datasets import generate_trajectory
from repro.exceptions import StoreError
from repro.store import (
    DEFAULT_TIME_BUCKET,
    PartitionKey,
    QueryResult,
    QuerySpec,
    Store,
    StoreSink,
    ZoneMap,
    open_store,
)
from repro.store.layout import (
    bucket_of,
    decode_chunks,
    decode_device_dir,
    encode_chunk,
    encode_device_dir,
)
from repro.streaming import StreamHub
from repro.streaming.sinks import SegmentSink


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


@pytest.fixture
def store(tmp_path) -> Store:
    return open_store(tmp_path / "segments", time_bucket=100.0)


class TestOpenStore:
    def test_initialises_manifest_and_layout(self, tmp_path):
        store = open_store(tmp_path / "s")
        assert store.time_bucket == DEFAULT_TIME_BUCKET
        assert (tmp_path / "s" / "MANIFEST.json").exists()
        assert store.n_partitions == 0 and store.n_segments == 0
        assert store.time_range() is None

    def test_reopen_reads_time_bucket_from_manifest(self, tmp_path):
        open_store(tmp_path / "s", time_bucket=250.0)
        assert open_store(tmp_path / "s").time_bucket == 250.0
        # A matching explicit value is fine; a contradicting one is not.
        assert open_store(tmp_path / "s", time_bucket=250.0).time_bucket == 250.0
        with pytest.raises(StoreError, match="time_bucket"):
            open_store(tmp_path / "s", time_bucket=60.0)

    def test_create_false_requires_existing_store(self, tmp_path):
        with pytest.raises(StoreError, match="no segment store"):
            open_store(tmp_path / "missing", create=False)

    def test_refuses_non_store_directory(self, tmp_path):
        (tmp_path / "stuff").mkdir()
        (tmp_path / "stuff" / "notes.txt").write_text("hello")
        with pytest.raises(StoreError, match="refusing"):
            open_store(tmp_path / "stuff")

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("inf"), float("nan")])
    def test_time_bucket_must_be_positive_finite(self, tmp_path, bad):
        with pytest.raises(InvalidParameterError, match="time_bucket"):
            open_store(tmp_path / "s", time_bucket=bad)


class TestAppend:
    def test_append_partitions_by_device_and_bucket(self, store):
        n = store.append(
            "cab-1", [seg(0.0, 50.0), seg(150.0, 190.0), seg(420.0, 480.0)], epsilon=10.0
        )
        assert n == 3
        store.append("cab-2", seg(10.0, 20.0), epsilon=10.0)
        assert store.n_segments == 4
        assert store.n_partitions == 4  # cab-1 buckets {0, 1, 4} + cab-2 bucket {0}
        assert store.devices() == ["cab-1", "cab-2"]
        keys = [key for key, _ in store.partitions()]
        assert keys == sorted(keys)
        assert PartitionKey("cab-1", 4) in keys
        assert store.time_range() == (0.0, 480.0)

    def test_empty_batch_is_a_noop(self, store):
        assert store.append("cab-1", [], epsilon=10.0) == 0
        assert store.n_partitions == 0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_epsilon_validated(self, store, bad):
        with pytest.raises(InvalidParameterError, match="epsilon"):
            store.append("cab-1", seg(0.0, 10.0), epsilon=bad)

    def test_non_finite_coordinates_rejected(self, store):
        bad = seg(0.0, 10.0, x1=float("nan"))
        with pytest.raises(StoreError, match="non-finite"):
            store.append("cab-1", bad, epsilon=10.0)
        assert store.n_segments == 0

    def test_append_order_within_partition_is_preserved(self, store):
        first = seg(5.0, 10.0, x0=1.0)
        second = seg(2.0, 8.0, x0=2.0)  # earlier timestamp, later append
        store.append("cab-1", first, epsilon=10.0)
        store.append("cab-1", second, epsilon=10.0)
        result = store.query(device="cab-1")
        assert [s.record.start.x for s in result.segments] == [1.0, 2.0]


class TestPersistence:
    def test_reopen_round_trips_everything(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        records = [seg(0.0, 50.0, x0=3.0, y0=4.0), seg(260.0, 280.0, x1=-7.5)]
        store.append("bus-9", records, epsilon=2.5)
        before = [s.to_dict() for s in store.query().segments]

        reopened = open_store(tmp_path / "s")
        assert reopened.n_segments == 2
        assert reopened.n_partitions == 2
        after = [s.to_dict() for s in reopened.query().segments]
        assert after == before
        assert after[0]["epsilon"] == 2.5

    def test_same_appends_produce_byte_identical_files(self, tmp_path):
        def build(root):
            store = open_store(root, time_bucket=100.0)
            store.append("cab-1", [seg(0.0, 50.0), seg(150.0, 190.0)], epsilon=10.0)
            store.append("cab-1", seg(60.0, 90.0), epsilon=10.0)
            # The LOCK file is excluded: it records pid + wall-clock
            # acquisition time, which is exactly the nondeterminism the
            # data/sidecar bytes must not contain.
            return {
                path.relative_to(root).as_posix(): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file() and path.name != "LOCK"
            }

        assert build(tmp_path / "a") == build(tmp_path / "b")

    def test_device_dir_names_round_trip_awkward_ids(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        awkward = ["UPPER/lower", "dots..", "sp ace", "percent%41", "日本語"]
        for device_id in awkward:
            store.append(device_id, seg(0.0, 10.0), epsilon=1.0)
        assert open_store(tmp_path / "s").devices() == sorted(awkward)
        for device_id in awkward:
            encoded = encode_device_dir(device_id)
            assert "/" not in encoded.removeprefix("d-")
            assert decode_device_dir(encoded) == device_id

    def test_orphan_data_without_sidecar_is_rejected(self, tmp_path):
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", seg(0.0, 10.0), epsilon=1.0)
        zonemaps = list((tmp_path / "s").rglob("*.zm.json"))
        assert len(zonemaps) == 1
        zonemaps[0].unlink()
        with pytest.raises(StoreError, match="without a zone map"):
            open_store(tmp_path / "s")

    def test_sidecar_without_data_is_an_empty_partition(self, tmp_path):
        # The legitimate crash window: covering zone map landed, data
        # append did not.  Pruning over-approximates; queries see nothing.
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", seg(0.0, 10.0), epsilon=1.0)
        for data_file in (tmp_path / "s").rglob("*.seg"):
            data_file.unlink()
        reopened = open_store(tmp_path / "s")
        assert reopened.n_partitions == 1
        result = reopened.query(full_scan=True)
        assert len(result) == 0

    def test_corrupt_chunk_is_recovered_on_open(self, tmp_path):
        # A clobbered magic means no committed prefix at all: recovery
        # truncates the file to zero bytes and the partition reads empty
        # instead of the whole store becoming unreadable.
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", seg(0.0, 10.0), epsilon=1.0)
        store.close()
        (data_file,) = (tmp_path / "s").rglob("*.seg")
        data_file.write_bytes(b"XXXX" + data_file.read_bytes()[4:])
        reopened = open_store(tmp_path / "s")
        assert reopened.recovery.damaged == 1
        (repair,) = reopened.recovery.repairs
        assert repair.reason == "bad chunk magic"
        assert repair.valid_bytes == 0 and repair.truncated
        assert len(reopened.query(full_scan=True)) == 0
        assert data_file.read_bytes() == b""

    def test_truncated_chunk_is_recovered_on_open(self, tmp_path):
        # Torn tail: the second append's chunk lost its last 8 bytes.
        # Recovery keeps the committed first chunk and drops the tail.
        store = open_store(tmp_path / "s", time_bucket=100.0)
        store.append("cab-1", seg(0.0, 10.0, x0=1.0), epsilon=1.0)
        store.append("cab-1", seg(20.0, 30.0, x0=2.0), epsilon=1.0)
        store.close()
        (data_file,) = (tmp_path / "s").rglob("*.seg")
        data_file.write_bytes(data_file.read_bytes()[:-8])
        reopened = open_store(tmp_path / "s")
        assert reopened.recovery.damaged == 1
        (repair,) = reopened.recovery.repairs
        assert repair.reason == "truncated chunk payload"
        assert repair.segments_kept == 1 and repair.truncated
        result = reopened.query(full_scan=True)
        assert [s.record.start.x for s in result.segments] == [1.0]
        assert reopened.n_segments == 1


class TestChunkCodec:
    def test_chunk_round_trip_preserves_every_field(self):
        records = [
            seg(0.0, 50.0, x0=1.5, y0=-2.25, x1=3.75, y1=4.125, first=0, last=7),
            SegmentRecord(
                start=Point(9.0, 8.0, 60.0),
                end=Point(7.0, 6.0, 70.0),
                first_index=7,
                last_index=12,
                point_count=6,
                covered_last_index=14,
                patched_start=True,
                patched_end=True,
            ),
        ]
        data = encode_chunk(records, 12.5)
        (decoded,) = list(decode_chunks(data))
        assert [(r.to_dict(), e) for r, e in decoded] == [
            (r.to_dict(), 12.5) for r in records
        ]

    def test_multiple_chunks_decode_in_append_order(self):
        data = encode_chunk([seg(0.0, 1.0, x0=1.0)], 1.0) + encode_chunk(
            [seg(2.0, 3.0, x0=2.0)], 2.0
        )
        chunks = list(decode_chunks(data))
        assert len(chunks) == 2
        assert chunks[0][0][0].start.x == 1.0 and chunks[0][0][1] == 1.0
        assert chunks[1][0][0].start.x == 2.0 and chunks[1][0][1] == 2.0


class TestZoneMap:
    def test_of_rows_covers_and_merge_widens(self):
        a = ZoneMap.of_rows([(seg(0.0, 50.0, x0=-5.0, y1=9.0), 10.0)])
        assert a.t_min == 0.0 and a.t_max == 50.0
        assert a.x_min == -5.0 and a.y_max == 9.0
        assert a.segments == 1
        b = ZoneMap.of_rows([(seg(40.0, 90.0, x1=200.0), 20.0)])
        merged = a.merge(b)
        assert (merged.t_min, merged.t_max) == (0.0, 90.0)
        assert merged.x_max == 200.0
        assert merged.segments == 2
        assert merged.may_contain_epsilon(10.0) and merged.may_contain_epsilon(20.0)
        assert not merged.may_contain_epsilon(15.0)

    def test_interval_predicates(self):
        zonemap = ZoneMap.of_rows([(seg(10.0, 20.0, x0=0.0, y0=0.0, x1=5.0, y1=5.0), 1.0)])
        assert zonemap.may_intersect_window((15.0, 30.0))
        assert zonemap.may_intersect_window((20.0, 20.0))  # closed bounds
        assert not zonemap.may_intersect_window((20.5, 30.0))
        assert zonemap.may_intersect_bbox((4.0, 4.0, 9.0, 9.0))
        assert not zonemap.may_intersect_bbox((6.0, 6.0, 9.0, 9.0))

    def test_dict_round_trip(self):
        zonemap = ZoneMap.of_rows([(seg(0.0, 50.0), 10.0)])
        assert ZoneMap.from_dict(zonemap.to_dict()) == zonemap

    def test_bucket_of_handles_negative_times(self):
        assert bucket_of(0.0, 100.0) == 0
        assert bucket_of(99.9, 100.0) == 0
        assert bucket_of(100.0, 100.0) == 1
        assert bucket_of(-0.5, 100.0) == -1


class TestQuerySpec:
    def test_normalises_and_validates(self):
        spec = QuerySpec(window=(0, 10), bbox=(0, 0, 5, 5), epsilon=2)
        assert spec.window == (0.0, 10.0)
        assert spec.bbox == (0.0, 0.0, 5.0, 5.0)
        assert spec.epsilon == 2.0
        assert not spec.unconstrained
        assert QuerySpec().unconstrained

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": (10.0, 0.0)},
            {"window": (0.0, float("nan"))},
            {"window": (1.0, 2.0, 3.0)},
            {"bbox": (5.0, 0.0, 0.0, 5.0)},
            {"bbox": (0.0, 0.0, 1.0)},
            {"epsilon": -1.0},
            {"epsilon": "wide"},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            QuerySpec(**kwargs)

    def test_spec_and_kwargs_are_exclusive(self, store):
        with pytest.raises(InvalidParameterError, match="not both"):
            store.query(QuerySpec(device="cab-1"), device="cab-2")


class TestQuery:
    @pytest.fixture
    def populated(self, store) -> Store:
        for device in ("cab-1", "cab-2", "cab-3"):
            store.append(
                device,
                [seg(t, t + 40.0, x0=float(t), x1=float(t) + 50.0) for t in (0.0, 150.0, 300.0, 450.0)],
                epsilon=10.0,
            )
        store.append("cab-1", seg(600.0, 640.0), epsilon=25.0)
        return store

    def test_unconstrained_query_returns_everything(self, populated):
        result = populated.query()
        assert isinstance(result, QueryResult)
        assert len(result) == 13
        assert result.partitions_scanned == result.partitions_total == 13
        assert result.partitions_skipped == 0
        assert result.devices() == ["cab-1", "cab-2", "cab-3"]

    def test_device_and_window_pruning(self, populated):
        result = populated.query(device="cab-2", window=(140.0, 200.0))
        assert [s.record.start.t for s in result.segments] == [150.0]
        # partitions_total counts only the queried device's partitions
        # (cab-2 owns 4) — the skipping baseline is what the query could
        # ever have read, not the whole store.
        assert result.partitions_total == 4
        assert result.partitions_scanned == 1
        assert result.partitions_skipped == 3
        assert result.scan_fraction == pytest.approx(1 / 4)

    def test_zone_map_admits_partition_but_rows_still_filtered(self, store):
        # Two segments in one bucket with a temporal gap: the zone map's
        # covering hull [0, 90] admits the partition for window (40, 50),
        # but the row predicate then matches nothing — the partition is
        # scanned, the result stays empty.
        store.append("cab-1", [seg(0.0, 10.0), seg(80.0, 90.0)], epsilon=5.0)
        result = store.query(window=(40.0, 50.0))
        assert len(result) == 0
        assert result.partitions_scanned == 1
        assert result.segments_scanned == 2

    def test_bbox_and_epsilon_predicates(self, populated):
        by_box = populated.query(bbox=(440.0, -1.0, 460.0, 1.0))
        assert {s.record.start.t for s in by_box.segments} == {450.0}
        assert by_box.devices() == ["cab-1", "cab-2", "cab-3"]
        by_eps = populated.query(epsilon=25.0)
        assert len(by_eps) == 1 and by_eps.segments[0].device_id == "cab-1"
        assert by_eps.partitions_scanned == 1  # epsilon zone maps prune too

    def test_full_scan_is_byte_identical_to_pruned(self, populated):
        spec = QuerySpec(device="cab-3", window=(290.0, 320.0))
        pruned = populated.query(spec)
        full = populated.query(spec, full_scan=True)
        assert full.full_scan and not pruned.full_scan
        assert full.partitions_scanned == full.partitions_total
        assert pruned.partitions_scanned < full.partitions_scanned
        assert json.dumps([s.to_dict() for s in pruned.segments]) == json.dumps(
            [s.to_dict() for s in full.segments]
        )

    def test_result_as_dict_shape(self, populated):
        payload = populated.query(device="cab-1").as_dict()
        assert payload["matched"] == len(payload["segments"])
        assert payload["partitions_total"] == 5  # cab-1's partitions only
        assert payload["partitions_scanned"] + payload["partitions_skipped"] == 5
        json.dumps(payload, allow_nan=False)  # strictly JSON-serialisable


class TestWindowAggregates:
    def test_tumbling_windows_count_contributing_segments(self, store):
        store.append(
            "cab-1", [seg(0.0, 80.0), seg(90.0, 210.0), seg(220.0, 260.0)], epsilon=5.0
        )
        store.append("cab-2", seg(100.0, 140.0), epsilon=5.0)
        aggregates = store.window_aggregates(window=(0.0, 300.0), width=100.0)
        assert [a.t_start for a in aggregates.windows] == [0.0, 100.0, 200.0, 300.0]
        # Closed-span intersection on both edges: cab-2's [100, 140] and
        # cab-1's [90, 210] both touch window [0, 100] at its right edge.
        assert [a.segments for a in aggregates.windows] == [3, 2, 2, 0]
        assert aggregates.windows[1].devices == 2
        assert aggregates.windows[1].device_ids == ("cab-1", "cab-2")
        assert aggregates.windows[0].points == 6
        assert aggregates.windows[0].total_length == pytest.approx(300.0)

    def test_window_edges_are_closed_on_both_sides(self, store):
        # A segment ending exactly at a window's start and one starting
        # exactly at its end both contribute — matching QuerySpec.matches.
        store.append("cab-1", [seg(0.0, 100.0), seg(200.0, 260.0)], epsilon=5.0)
        aggregates = store.window_aggregates(window=(100.0, 200.0), width=100.0)
        assert aggregates.windows[0].segments == 2

    def test_sliding_step_overlaps(self, store):
        store.append("cab-1", seg(0.0, 100.0), epsilon=5.0)
        aggregates = store.window_aggregates(
            device="cab-1", window=(0.0, 100.0), width=60.0, step=30.0
        )
        assert [a.t_start for a in aggregates.windows] == [0.0, 30.0, 60.0, 90.0]
        assert all(a.segments == 1 for a in aggregates.windows)

    def test_range_defaults_to_matched_segments(self, store):
        store.append("cab-1", [seg(50.0, 100.0), seg(110.0, 150.0)], epsilon=5.0)
        aggregates = store.window_aggregates(width=50.0)
        assert aggregates.windows[0].t_start == 50.0
        assert aggregates.windows[-1].t_end >= 150.0

    def test_empty_store_has_no_windows(self, store):
        assert store.window_aggregates(width=10.0).windows == ()

    @pytest.mark.parametrize("kwargs", [{"width": 0.0}, {"width": 10.0, "step": -1.0}])
    def test_width_and_step_validated(self, store, kwargs):
        with pytest.raises(InvalidParameterError):
            store.window_aggregates(**kwargs)


class TestStoreSink:
    def test_sink_satisfies_the_protocol(self, store):
        sink = store.sink("cab-1", epsilon=5.0)
        assert isinstance(sink, SegmentSink)
        assert isinstance(sink, StoreSink)

    def test_buffering_and_flush(self, store):
        sink = store.sink("cab-1", epsilon=5.0, buffer_size=3)
        for t in (0.0, 10.0):
            sink.accept(seg(t, t + 5.0))
        assert sink.pending == 2 and sink.segments_written == 0
        assert store.n_segments == 0
        sink.accept(seg(20.0, 25.0))  # hits buffer_size: auto-flush
        assert sink.pending == 0 and sink.segments_written == 3
        assert store.n_segments == 3

    def test_failed_flush_keeps_the_buffer_for_retry(self, store, monkeypatch):
        sink = store.sink("cab-1", epsilon=5.0, buffer_size=100)
        for t in (0.0, 10.0, 20.0):
            sink.accept(seg(t, t + 5.0))
        real_append = store.append

        def failing_append(*args, **kwargs):
            raise StoreError("disk on fire")

        monkeypatch.setattr(store, "append", failing_append)
        with pytest.raises(StoreError, match="disk on fire"):
            sink.flush()
        # The batch must survive the failed append: nothing written, nothing
        # dropped, and a retry persists every buffered segment exactly once.
        assert sink.pending == 3 and sink.segments_written == 0
        assert store.n_segments == 0
        monkeypatch.setattr(store, "append", real_append)
        sink.flush()
        assert sink.pending == 0 and sink.segments_written == 3
        assert store.n_segments == 3

    def test_close_flushes_and_is_idempotent(self, store):
        sink = store.sink("cab-1", epsilon=5.0, buffer_size=100)
        sink.accept(seg(0.0, 5.0))
        sink.close()
        sink.close()
        assert sink.closed and sink.segments_written == 1
        assert store.n_segments == 1
        with pytest.raises(StoreError, match="closed"):
            sink.accept(seg(10.0, 15.0))

    def test_context_manager_flushes_on_exit(self, store):
        with store.sink("cab-1", epsilon=5.0, buffer_size=100) as sink:
            sink.accept(seg(0.0, 5.0))
        assert sink.closed and store.n_segments == 1

    def test_hub_persists_through_store_sink_factory(self, store):
        trajectory = generate_trajectory("taxi", 200, seed=3)
        with StreamHub(
            algorithm="operb",
            epsilon=30.0,
            shards=4,
            sink_factory=store.sink_factory(epsilon=30.0, buffer_size=8),
        ) as hub:
            for device in ("cab-1", "cab-2"):
                for point in trajectory:
                    hub.push(device, point)
            hub.finish_all()
            stats = hub.stats()
        # __exit__ closed every sink: everything the devices emitted is
        # durable, and the store sees exactly the hub's segment count.
        assert stats.segments_emitted > 0 and stats.sink_failures == 0
        assert store.n_segments == stats.segments_emitted
        assert store.devices() == ["cab-1", "cab-2"]
        expected = Simplifier("operb", 30.0).run(trajectory)
        persisted = open_store(store.root).query(device="cab-1")
        assert [s.record.to_dict() for s in persisted.segments] == [
            r.to_dict() for r in expected.segments
        ]

    def test_run_many_routes_into_the_store(self, store, tmp_path):
        trajectories = [generate_trajectory("taxi", 150, seed=s) for s in (1, 2)]
        results = Simplifier("operb", 30.0).run_many(
            trajectories, sink_factory=store.sink_factory(epsilon=30.0)
        )
        assert store.n_segments == sum(r.n_segments for r in results)
        assert len(store.devices()) == 2


class TestAcceptancePruning:
    def test_fleet_query_reads_under_30_percent_and_matches_full_scan(self, tmp_path):
        """ISSUE acceptance: partitioned fleet, pruned device/time query
        reads <30% of partitions, byte-identical to the forced full scan."""
        trajectory = generate_trajectory("taxi", 400, seed=11)
        span = trajectory.ts[-1] - trajectory.ts[0]
        store = open_store(tmp_path / "fleet", time_bucket=span / 8)
        simplifier = Simplifier("operb", 30.0)
        representation = simplifier.run(trajectory)
        for index in range(12):
            store.append(f"dev-{index:03d}", list(representation.segments), epsilon=30.0)
        assert store.n_partitions >= 12 * 8

        t0 = float(trajectory.ts[0])
        spec = QuerySpec(device="dev-007", window=(t0, t0 + span * 0.2))
        pruned = store.query(spec)
        full = store.query(spec, full_scan=True)
        assert pruned.scan_fraction < 0.30
        assert len(pruned) > 0
        assert json.dumps(pruned.as_dict()["segments"]) == json.dumps(
            full.as_dict()["segments"]
        )


class TestDegenerateAccounting:
    """Empty stores and unknown devices must report an honest baseline:
    ``partitions_total == 0`` and ``scan_fraction == 0.0``, never a pruning
    credit for partitions the query could not have read."""

    @pytest.mark.parametrize("full_scan", [False, True])
    def test_empty_store_query(self, store, full_scan):
        result = store.query(full_scan=full_scan)
        assert len(result) == 0
        assert result.partitions_total == 0
        assert result.partitions_scanned == 0
        assert result.partitions_skipped == 0
        assert result.scan_fraction == 0.0
        assert result.as_dict()["scan_fraction"] == 0.0

    @pytest.mark.parametrize("full_scan", [False, True])
    def test_unknown_device_query(self, store, full_scan):
        store.append("cab-1", seg(0.0, 40.0), epsilon=10.0)
        result = store.query(device="ghost", full_scan=full_scan)
        assert len(result) == 0
        assert result.partitions_total == 0
        assert result.partitions_scanned == 0
        assert result.scan_fraction == 0.0

    @pytest.mark.parametrize("pushdown", [False, True])
    def test_empty_store_window_aggregates(self, store, pushdown):
        aggregates = store.window_aggregates(width=100.0, pushdown=pushdown)
        assert len(aggregates) == 0
        assert aggregates.partitions_total == 0
        assert aggregates.partitions_scanned == 0
        assert aggregates.partitions_pushdown == 0
        assert aggregates.scan_fraction == 0.0

    @pytest.mark.parametrize("pushdown", [False, True])
    def test_unknown_device_window_aggregates(self, store, pushdown):
        store.append("cab-1", seg(0.0, 40.0), epsilon=10.0)
        aggregates = store.window_aggregates(
            device="ghost", width=100.0, pushdown=pushdown
        )
        assert len(aggregates) == 0
        assert aggregates.partitions_total == 0
        assert aggregates.partitions_scanned == 0
        assert aggregates.scan_fraction == 0.0


class TestLevelResolution:
    """``level``/``max_deviation`` resolve against the stored ladder before
    any partition is consulted (the multi-resolution serving surface)."""

    @pytest.fixture
    def layered(self, store) -> Store:
        # Three stored resolutions: the pyramid ladder 10 < 40 < 160.
        for epsilon, count in ((10.0, 6), (40.0, 3), (160.0, 1)):
            store.append(
                "cab-1",
                [seg(float(i * 10), float(i * 10) + 5.0) for i in range(count)],
                epsilon=epsilon,
            )
        store.append("cab-2", seg(0.0, 5.0), epsilon=10.0)
        return store

    def test_levels_lists_distinct_epsilons_ascending(self, layered):
        assert layered.levels() == [10.0, 40.0, 160.0]

    def test_empty_store_has_no_levels(self, store):
        assert store.levels() == []

    def test_level_selects_that_rungs_epsilon(self, layered):
        result = layered.query(device="cab-1", level=1)
        assert result.spec.epsilon == 40.0
        assert result.spec.level is None  # resolved away
        assert {s.epsilon for s in result.segments} == {40.0}
        assert len(result) == 3

    def test_level_out_of_range_raises(self, layered):
        with pytest.raises(InvalidParameterError, match="3 level"):
            layered.query(level=3)

    def test_max_deviation_picks_the_coarsest_qualifying_level(self, layered):
        result = layered.query(device="cab-1", max_deviation=100.0)
        assert result.spec.epsilon == 40.0  # coarsest stored bound <= 100
        assert {s.epsilon for s in result.segments} == {40.0}

    def test_max_deviation_exactly_on_a_rung_selects_it(self, layered):
        assert layered.query(max_deviation=160.0).spec.epsilon == 160.0

    def test_unsatisfiable_sla_matches_nothing_with_honest_accounting(
        self, layered
    ):
        result = layered.query(device="cab-1", max_deviation=5.0)
        assert len(result) == 0
        assert result.partitions_scanned == 0
        # The device predicate's baseline is still reported: the query
        # *could* have read cab-1's partition, it just matched no level.
        assert result.partitions_total == 1
        assert result.scan_fraction == 0.0

    def test_window_aggregates_resolve_levels_too(self, layered):
        aggregates = layered.window_aggregates(
            device="cab-1", level=0, width=100.0
        )
        assert aggregates.spec.epsilon == 10.0
        scanned = layered.window_aggregates(
            device="cab-1", max_deviation=5.0, width=100.0
        )
        assert len(scanned) == 0
        assert scanned.partitions_scanned == 0

    def test_unresolved_selectors_refuse_to_match(self):
        record = seg(0.0, 10.0)
        with pytest.raises(InvalidParameterError, match="store-resolved"):
            QuerySpec(level=0).matches("cab-1", 10.0, record)
        with pytest.raises(InvalidParameterError, match="store-resolved"):
            QuerySpec(max_deviation=10.0).matches("cab-1", 10.0, record)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=10.0, level=0),
            dict(epsilon=10.0, max_deviation=20.0),
            dict(level=0, max_deviation=20.0),
        ],
    )
    def test_resolution_selectors_are_mutually_exclusive(self, kwargs):
        with pytest.raises(InvalidParameterError, match="mutually exclusive"):
            QuerySpec(**kwargs)

    @pytest.mark.parametrize("bad", [-1, 1.5, True])
    def test_level_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(InvalidParameterError, match="level"):
            QuerySpec(level=bad)


class TestPyramidSinkFactory:
    def test_levels_persist_under_their_ladder_epsilons(self, store):
        ladder = [10.0, 40.0, 160.0]
        factory = store.pyramid_sink_factory(ladder)
        for level, epsilon in enumerate(ladder):
            with factory("cab-1", level) as sink:
                sink.accept(seg(float(level * 100), float(level * 100) + 5.0))
        assert store.levels() == ladder
        for level, epsilon in enumerate(ladder):
            result = store.query(level=level)
            assert {s.epsilon for s in result.segments} == {epsilon}

    def test_out_of_range_level_raises(self, store):
        factory = store.pyramid_sink_factory([10.0, 40.0])
        with pytest.raises(InvalidParameterError, match="outside"):
            factory("cab-1", 2)

    @pytest.mark.parametrize(
        "ladder", [[], [10.0, 10.0], [40.0, 10.0], [10.0, float("inf")], [-1.0]]
    )
    def test_invalid_ladders_are_rejected(self, store, ladder):
        with pytest.raises(InvalidParameterError):
            store.pyramid_sink_factory(ladder)

    def test_pyramid_hub_end_to_end_stores_every_level(self, store):
        ladder = [20.0, 40.0, 80.0]
        trajectory = generate_trajectory("taxi", 300, seed=4)
        with StreamHub(
            algorithm="operb",
            epsilons=ladder,
            sink_factory=store.sink_factory(epsilon=ladder[0]),
            level_sink_factory=store.pyramid_sink_factory(ladder),
        ) as hub:
            for point in trajectory:
                hub.push("cab-9", point)
            hub.finish_all()
            stats = hub.stats()
        assert store.levels() == ladder
        for level, count in enumerate(stats.segments_by_level):
            assert len(store.query(device="cab-9", level=level)) == count
