"""Deterministic halves of the same-run timing guards under ``benchmarks/``.

A timing guard compares a feature against a reference in the same run; the
ratio only means something if both sides do the work the guard claims.
These tests pin that work without timing anything, so they run in the
tier-1 suite on every host: the shared ratio helper and skip marker, the
store's exact scan counts, the concurrent hubs' output and the batch
fleets the paper gate times.
"""

from __future__ import annotations

import pytest

import bench_hub_backends
import bench_paper_ratios
import bench_store
from _bench_utils import host_is_constrained, median_ratio, timed
from repro.streaming import CollectingSink


class TestHostMarker:
    @pytest.mark.parametrize(
        ("environ", "cpus", "constrained"),
        [
            ({}, 2, False),
            ({}, 1, True),
            ({}, None, True),
            ({"REPRO_SKIP_SPEEDUP_ASSERT": "1"}, 8, True),
            ({"REPRO_FORCE_SPEEDUP_ASSERT": "1"}, 1, False),
            (
                {"REPRO_FORCE_SPEEDUP_ASSERT": "1", "REPRO_SKIP_SPEEDUP_ASSERT": "1"},
                8,
                False,
            ),
        ],
    )
    def test_which_hosts_skip_timing_assertions(self, environ, cpus, constrained):
        assert host_is_constrained(environ, cpus) is constrained


class TestMedianRatio:
    def test_median_of_the_pair_ratios(self):
        above = iter([2.0, 9.0, 3.0])
        below = iter([1.0, 1.0, 1.0])
        assert median_ratio(lambda: next(above), lambda: next(below), 3) == 3.0

    def test_each_pair_runs_back_to_back_in_alternating_order(self):
        calls: list[str] = []

        def side(name: str):
            def run() -> float:
                calls.append(name)
                return 1.0

            return run

        median_ratio(side("feature"), side("reference"), 4)
        assert calls == ["feature", "reference", "reference", "feature"] * 2

    def test_an_even_pair_count_averages_the_middle_ratios(self):
        above = iter([1.0, 2.0, 4.0, 8.0])
        assert median_ratio(lambda: next(above), lambda: 1.0, 4) == 3.0

    def test_at_least_one_pair(self):
        with pytest.raises(ValueError, match="pairs"):
            median_ratio(lambda: 1.0, lambda: 1.0, 0)

    def test_timed_runs_the_function_once_and_returns_seconds(self):
        calls: list[int] = []
        elapsed = timed(lambda: calls.append(1))()
        assert calls == [1]
        assert 0.0 <= elapsed < 1.0


@pytest.fixture(scope="module")
def store_fleets():
    return {algorithm: bench_store.Fleet(algorithm) for algorithm in bench_store.ALGORITHMS}


class TestStoreGuard:
    @pytest.mark.parametrize("algorithm", bench_store.ALGORITHMS)
    def test_queries_read_exactly_the_partitions_meeting_the_window(
        self, store_fleets, tmp_path, algorithm
    ):
        fleet = store_fleets[algorithm]
        low, high = fleet.window
        with fleet.build(tmp_path / "store") as store:
            expected = [
                sum(
                    1
                    for key, zonemap in store.partitions()
                    if key.device_id == device_id
                    and zonemap.t_min <= high
                    and zonemap.t_max >= low
                )
                for device_id in fleet.segments
            ]
            pruned = fleet.queries(store)
            full = fleet.queries(store, full_scan=True)
        assert [result.partitions_scanned for result in pruned] == expected
        assert bench_store.scan_fraction(pruned) == bench_store.SCAN_FRACTION[algorithm]
        assert bench_store.scan_fraction(full) == 1.0
        assert [r.segments for r in pruned] == [r.segments for r in full]

    @pytest.mark.parametrize("algorithm", bench_store.ALGORITHMS)
    def test_row_reference_returns_what_queries_return(
        self, store_fleets, tmp_path, algorithm
    ):
        fleet = store_fleets[algorithm]
        with fleet.build(tmp_path / "store", batch=bench_store.COMPACT_BATCH) as store:
            queried = fleet.queries(store)
            reference = fleet.row_queries(store)
        assert [list(result.segments) for result in queried] == reference
        assert sum(len(segments) for segments in reference) > 0

    @pytest.mark.parametrize("algorithm", bench_store.ALGORITHMS)
    def test_compaction_keeps_answers_and_pruning(self, store_fleets, tmp_path, algorithm):
        fleet = store_fleets[algorithm]
        with fleet.build(tmp_path / "store", batch=bench_store.COMPACT_BATCH) as store:
            assert max(zonemap.chunks for _, zonemap in store.partitions()) > 1
            before = fleet.queries(store)
            store.compact()
            after = fleet.queries(store)
            assert all(zonemap.chunks == 1 for _, zonemap in store.partitions())
        assert [r.segments for r in after] == [r.segments for r in before]
        assert [r.partitions_scanned for r in after] == [
            r.partitions_scanned for r in before
        ]

    @pytest.mark.parametrize("algorithm", bench_store.ALGORITHMS)
    def test_covering_aggregates_read_no_partition(self, store_fleets, tmp_path, algorithm):
        fleet = store_fleets[algorithm]
        with fleet.build(tmp_path / "store") as store:
            pushed = fleet.aggregates(store)
            scanned = fleet.aggregates(store, pushdown=False)
        assert bench_store.scan_fraction(pushed) == 0.0
        assert all(r.partitions_pushdown == r.partitions_total > 0 for r in pushed)
        assert bench_store.scan_fraction(scanned) == 1.0
        for ours, reference in zip(pushed, scanned):
            assert len(ours.windows) == len(reference.windows) == 2
            for window, expected in zip(ours.windows, reference.windows):
                assert (window.t_start, window.t_end, window.segments, window.points) == (
                    expected.t_start,
                    expected.t_end,
                    expected.segments,
                    expected.points,
                )
                assert window.device_ids == expected.device_ids
                assert window.total_length == pytest.approx(expected.total_length)


@pytest.fixture(scope="module")
def hub_logs():
    return bench_hub_backends.build_logs()


class TestHubBackendGuard:
    @pytest.mark.parametrize(("backend", "log"), sorted(bench_hub_backends.MAX_RATIO))
    def test_concurrent_hub_emits_the_serial_segments(self, hub_logs, backend, log):
        outputs = []
        for ran in (backend, "serial"):
            sinks: dict[str, CollectingSink] = {}

            def factory(device_id: str, sinks=sinks) -> CollectingSink:
                return sinks.setdefault(device_id, CollectingSink())

            with bench_hub_backends.hub(ran, log, sink_factory=factory) as hub:
                hub.push_many(hub_logs[log])
                hub.finish_all()
                stats = hub.stats()
            assert stats.points_pushed == len(hub_logs[log])
            outputs.append({device: sink.segments for device, sink in sinks.items()})
        assert outputs[0] == outputs[1]
        assert sum(len(segments) for segments in outputs[0].values()) > 0


class TestPaperGate:
    def test_calibration_loop_is_fixed_work(self):
        loop = bench_paper_ratios.calibration_loop
        assert loop(1_000) == loop(1_000)
        assert loop() > loop(1_000) > 0.0

    @pytest.mark.parametrize("profile", bench_paper_ratios.PROFILES)
    def test_every_algorithm_covers_the_whole_fleet(self, profile):
        fleet = bench_paper_ratios.build_fleet(profile)
        assert len(fleet) == 2
        for algorithm in bench_paper_ratios.ALGORITHMS:
            outputs = bench_paper_ratios.batch_run(algorithm, fleet)()
            for trajectory, representation in zip(fleet, outputs):
                assert representation.source_size == len(trajectory)
                assert representation.segments[0].first_index == 0
                assert representation.segments[-1].covered_last_index == len(trajectory) - 1
