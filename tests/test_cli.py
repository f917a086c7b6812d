"""Tests for the ``repro-traj`` command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli.main import build_parser, main
from repro.trajectory.io import write_csv


@pytest.fixture
def trajectory_csv(tmp_path, noisy_walk):
    path = tmp_path / "walk.csv"
    write_csv(noisy_walk, path)
    return path


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_perf_is_not_a_command(self, capsys):
        # Timing lives in benchmarks/ and fixbench/, outside the package.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["perf", "--suite", "quick"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err


class TestAlgorithmsCommand:
    def test_lists_paper_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        output = capsys.readouterr().out
        for name in ("dp", "fbqs", "operb", "operb-a"):
            assert name in output

    def test_prints_capability_columns(self, capsys):
        assert main(["algorithms"]) == 0
        output = capsys.readouterr().out
        for column in ("streaming", "one-pass", "error metric"):
            assert column in output
        assert "perpendicular" in output and "sed" in output

    def test_names_only_mode(self, capsys):
        assert main(["algorithms", "--names"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "operb" in lines and "dp" in lines
        assert lines == sorted(lines)


class TestCompressCommand:
    def test_compress_writes_output(self, trajectory_csv, tmp_path, capsys):
        output = tmp_path / "compressed.csv"
        code = main(
            [
                "compress",
                str(trajectory_csv),
                "--epsilon",
                "25",
                "--algorithm",
                "operb",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        assert "segments" in capsys.readouterr().out

    def test_unknown_algorithm_is_reported(self, trajectory_csv, capsys):
        code = main(["compress", str(trajectory_csv), "--algorithm", "bogus"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_evaluate_writes_json(self, trajectory_csv, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                str(trajectory_csv),
                "--epsilon",
                "25",
                "--algorithms",
                "dp",
                "operb",
                "--json",
                str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert {entry["algorithm"] for entry in payload} == {"dp", "operb"}


class TestGenerateCommand:
    def test_generate_csv_directory(self, tmp_path, capsys):
        output = tmp_path / "fleet"
        code = main(
            [
                "generate",
                "taxi",
                str(output),
                "--trajectories",
                "2",
                "--points",
                "200",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert len(list(output.glob("*.csv"))) == 2

    def test_generate_jsonl(self, tmp_path):
        output = tmp_path / "fleet.jsonl"
        code = main(
            ["generate", "geolife", str(output), "--trajectories", "1", "--points", "150"]
        )
        assert code == 0
        assert output.exists()

    def test_unknown_profile_is_reported(self, tmp_path, capsys):
        output = tmp_path / "out.csv"
        assert main(["generate", "warp", str(output)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unknown dataset profile 'warp'" in err
        assert "available: geolife, sercar, taxi, truck" in err
        assert not output.exists()


class TestServeReplayCommand:
    @pytest.fixture
    def point_log(self, tmp_path, device_point_log):
        from repro.streaming import write_point_log

        path = tmp_path / "log.jsonl"
        write_point_log(device_point_log[:3_000], path)
        return path

    def test_replays_log_and_reports_stats(self, point_log, tmp_path, capsys):
        output = tmp_path / "segments.csv"
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--epsilon",
                "40",
                "--shards",
                "5",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed 3000 points" in out
        assert "100 device(s)" in out
        assert "5 shard(s)" in out
        assert output.exists()
        assert len(output.read_text().splitlines()) > 1

    def test_unknown_synthetic_profile_is_reported(self, tmp_path, capsys):
        checkpoint = tmp_path / "hub.json"
        code = main(
            ["serve-replay", "--synthetic", "warp", "--checkpoint", str(checkpoint)]
        )
        assert code == 1
        assert "error: " in capsys.readouterr().err
        assert not checkpoint.exists()

    def test_synthetic_log_needs_no_input_file(self, capsys):
        code = main(
            ["serve-replay", "--synthetic", "taxi", "--devices", "8", "--points", "50"]
        )
        assert code == 0
        assert "points from 8 device(s)" in capsys.readouterr().out

    def test_checkpoint_resume_is_byte_identical(self, point_log, tmp_path, capsys):
        full = tmp_path / "full.csv"
        assert main(["serve-replay", str(point_log), "--output", str(full)]) == 0

        # Interrupted run: part one checkpoints mid-stream...
        from repro.streaming import CsvSegmentSink, StreamHub, read_point_log, save_checkpoint

        records = list(read_point_log(point_log))
        part1 = tmp_path / "part1.csv"
        checkpoint = tmp_path / "hub.json"
        with CsvSegmentSink(part1) as sink:
            hub = StreamHub(algorithm="operb", epsilon=40.0, shards=4, shared_sink=sink)
            hub.push_many(records[:1_700])
            save_checkpoint(hub, checkpoint)

        # ... and part two resumes from the checkpoint via the CLI.
        part2 = tmp_path / "part2.csv"
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--resume",
                str(checkpoint),
                "--checkpoint",
                str(checkpoint),
                "--output",
                str(part2),
            ]
        )
        assert code == 0
        assert "skipping 1700 points" in capsys.readouterr().out
        stitched = part1.read_text().splitlines() + part2.read_text().splitlines()[1:]
        assert stitched == full.read_text().splitlines()

    def test_input_and_synthetic_are_exclusive(self, point_log, capsys):
        assert main(["serve-replay", str(point_log), "--synthetic", "taxi"]) == 2
        assert "either a point-log file or --synthetic" in capsys.readouterr().err
        assert main(["serve-replay"]) == 2

    def test_resume_requires_checkpoint(self, point_log, tmp_path, capsys):
        code = main(
            ["serve-replay", str(point_log), "--resume", str(tmp_path / "hub.json")]
        )
        assert code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_checkpoint_every_requires_checkpoint_path(self, point_log, capsys):
        code = main(["serve-replay", str(point_log), "--checkpoint-every", "100"])
        assert code == 2
        assert "--checkpoint-every requires --checkpoint" in capsys.readouterr().err

    def test_thread_backend_replay_matches_serial(self, point_log, tmp_path, capsys):
        serial_csv = tmp_path / "serial.csv"
        assert main(["serve-replay", str(point_log), "--output", str(serial_csv)]) == 0
        threaded_csv = tmp_path / "threaded.csv"
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--backend",
                "thread",
                "--workers",
                "3",
                "--output",
                str(threaded_csv),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed 3000 points" in out
        # Same segment multiset; ordering across devices is backend-dependent
        # in a shared CSV sink.
        serial_rows = serial_csv.read_text().splitlines()
        threaded_rows = threaded_csv.read_text().splitlines()
        assert sorted(serial_rows) == sorted(threaded_rows)

    def test_block_size_is_a_pure_execution_knob(self, point_log, tmp_path, capsys):
        """Any --block-size replays to byte-identical per-device output."""
        serial_csv = tmp_path / "serial.csv"
        assert main(["serve-replay", str(point_log), "--output", str(serial_csv)]) == 0
        blocked_csv = tmp_path / "blocked.csv"
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--backend",
                "thread",
                "--workers",
                "2",
                "--block-size",
                "97",
                "--output",
                str(blocked_csv),
            ]
        )
        assert code == 0
        assert "replayed 3000 points" in capsys.readouterr().out
        assert sorted(serial_csv.read_text().splitlines()) == sorted(
            blocked_csv.read_text().splitlines()
        )

    def test_process_backend_is_not_a_choice(self, capsys):
        # node is the one cross-process backend; "process" is refused
        # like any unknown name, before any worker starts.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-replay", "--synthetic", "taxi", "--backend", "process"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'process'" in err
        # Newer argparse prints the choices with str(), older with repr().
        assert re.search(r"choose from '?serial'?, '?thread'?, '?node'?\)", err)

    def test_block_size_must_be_positive(self, point_log, capsys):
        code = main(["serve-replay", str(point_log), "--block-size", "0"])
        assert code == 1
        assert "block_size" in capsys.readouterr().err

    def test_resume_can_reshard_the_hub(self, point_log, tmp_path, capsys):
        from repro.streaming import StreamHub, read_point_log, save_checkpoint

        records = list(read_point_log(point_log))
        checkpoint = tmp_path / "hub.json"
        hub = StreamHub(algorithm="operb", epsilon=40.0, shards=4)
        hub.push_many(records[:1_500])
        save_checkpoint(hub, checkpoint)
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--resume",
                str(checkpoint),
                "--checkpoint",
                str(checkpoint),
                "--shards",
                "9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "onto 9 shard(s)" in out
        assert "9 shard(s)" in out

    def test_missing_resume_checkpoint_is_reported(self, point_log, tmp_path, capsys):
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--resume",
                str(tmp_path / "missing.json"),
                "--checkpoint",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 1
        assert "cannot read checkpoint" in capsys.readouterr().err


class TestExperimentCommand:
    def test_single_experiment_with_markdown(self, tmp_path, capsys):
        report = tmp_path / "table1.md"
        code = main(
            [
                "experiment",
                "--id",
                "table1",
                "--trajectories",
                "1",
                "--points",
                "300",
                "--markdown",
                str(report),
            ]
        )
        assert code == 0
        assert "table1" in capsys.readouterr().out
        assert report.exists()

    def test_unknown_experiment_id(self, capsys):
        code = main(["experiment", "--id", "fig99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestStoreCommands:
    @pytest.fixture
    def point_log(self, tmp_path, device_point_log):
        from repro.streaming import write_point_log

        path = tmp_path / "log.jsonl"
        write_point_log(device_point_log[:3_000], path)
        return path

    @pytest.fixture
    def store_dir(self, point_log, tmp_path, capsys):
        path = tmp_path / "segments"
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--epsilon",
                "40",
                "--store",
                str(path),
                "--time-bucket",
                "20",
            ]
        )
        assert code == 0
        capsys.readouterr()
        return path

    def test_serve_replay_persists_into_the_store(self, point_log, tmp_path, capsys):
        store_path = tmp_path / "segments"
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--epsilon",
                "40",
                "--store",
                str(store_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sink failures: 0" in out
        assert f"to store {store_path}" in out

        from repro.store import open_store

        store = open_store(store_path, create=False)
        assert store.n_segments > 0
        assert len(store.devices()) == 100

    def test_store_composes_with_csv_output(self, point_log, tmp_path, capsys):
        output = tmp_path / "segments.csv"
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--epsilon",
                "40",
                "--store",
                str(tmp_path / "segments"),
                "--output",
                str(output),
            ]
        )
        assert code == 0
        from repro.store import open_store

        store = open_store(tmp_path / "segments", create=False)
        # Tee routing: the CSV rows and the store rows are the same stream.
        assert len(output.read_text().splitlines()) - 1 == store.n_segments

    def test_query_device_window_prunes_partitions(self, store_dir, capsys):
        code = main(
            ["query", str(store_dir), "--device", "dev-0007", "--window", "0:40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(r"read (\d+)/(\d+) partition\(s\)", out)
        assert match is not None
        scanned, total = int(match.group(1)), int(match.group(2))
        assert scanned < total
        assert "skipped" in out

    def test_query_json_matches_full_scan_byte_for_byte(self, store_dir, capsys):
        argv = ["query", str(store_dir), "--device", "dev-0007", "--window", "0:40", "--json"]
        assert main(argv) == 0
        pruned = json.loads(capsys.readouterr().out)
        assert main([*argv, "--full-scan"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert pruned["partitions_scanned"] < full["partitions_scanned"]
        assert full["full_scan"] is True
        assert json.dumps(pruned["segments"]) == json.dumps(full["segments"])

    def test_query_limit_truncates_text_output(self, store_dir, capsys):
        assert main(["query", str(store_dir), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "more (use --limit 0 or --json)" in out

    def test_query_aggregate_windows(self, store_dir, capsys):
        code = main(
            ["query", str(store_dir), "--window", "0:100", "--aggregate", "50:25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "window(s) of width 50" in out
        assert "segment(s) from" in out

    def test_compact_preserves_query_results_byte_for_byte(
        self, point_log, store_dir, capsys
    ):
        # Replay the same log a second time: every partition gains a second
        # chunk, giving compaction real work to do.
        code = main(
            ["serve-replay", str(point_log), "--epsilon", "40", "--store", str(store_dir)]
        )
        assert code == 0
        capsys.readouterr()
        argv = ["query", str(store_dir), "--device", "dev-0007", "--json"]
        assert main(argv) == 0
        before = capsys.readouterr().out
        assert main(["compact", str(store_dir)]) == 0
        out = capsys.readouterr().out
        match = re.search(r"compacted (\d+)/(\d+) partition\(s\)", out)
        assert match is not None
        assert int(match.group(1)) > 0
        assert main(argv) == 0
        assert capsys.readouterr().out == before
        # A second pass finds nothing left to merge.
        assert main(["compact", str(store_dir)]) == 0
        assert "compacted 0/" in capsys.readouterr().out

    def test_compact_json_reports_recovery_and_compaction(self, store_dir, capsys):
        assert main(["compact", str(store_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recovery"]["damaged"] == 0
        assert payload["compaction"]["partitions_considered"] > 0

    def test_query_missing_store_is_reported(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nowhere")]) == 1
        assert "no segment store" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--window", "40"],
            ["--window", "9:1"],
            ["--bbox", "1,2,3"],
            ["--aggregate", "0"],
        ],
    )
    def test_bad_flag_syntax_is_reported(self, store_dir, capsys, flags):
        assert main(["query", str(store_dir), *flags]) == 1
        assert "error:" in capsys.readouterr().err


class TestPyramidCli:
    @pytest.fixture
    def point_log(self, tmp_path, device_point_log):
        from repro.streaming import write_point_log

        path = tmp_path / "log.jsonl"
        write_point_log(device_point_log[:1_000], path)
        return path

    def test_serve_replay_epsilons_reports_per_level_counts(self, capsys):
        code = main(
            [
                "serve-replay",
                "--synthetic",
                "taxi",
                "--devices",
                "4",
                "--points",
                "80",
                "--epsilons",
                "10",
                "20",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pyramid levels:" in out
        assert "L0(eps=10)" in out and "L2(eps=40)" in out

    def test_epsilons_conflict_with_resume(self, point_log, tmp_path, capsys):
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--epsilons",
                "10",
                "40",
                "--resume",
                str(tmp_path / "hub.json"),
                "--checkpoint",
                str(tmp_path / "hub.json"),
            ]
        )
        assert code == 2
        assert "--epsilons conflicts with --resume" in capsys.readouterr().err

    def test_non_ascending_epsilons_are_reported(self, capsys):
        code = main(
            ["serve-replay", "--synthetic", "taxi", "--epsilons", "40", "10"]
        )
        assert code == 1
        assert "strictly ascending" in capsys.readouterr().err

    def test_resume_takes_the_ladder_from_the_checkpoint(
        self, point_log, tmp_path, capsys
    ):
        from repro.streaming import StreamHub, read_point_log, save_checkpoint

        records = list(read_point_log(point_log))
        checkpoint = tmp_path / "hub.json"
        hub = StreamHub(algorithm="operb", epsilons=(40.0, 80.0), shards=4)
        hub.push_many(records[:600])
        save_checkpoint(hub, checkpoint)
        hub.close()

        code = main(
            [
                "serve-replay",
                str(point_log),
                "--resume",
                str(checkpoint),
                "--checkpoint",
                str(checkpoint),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skipping 600 points" in out
        assert "L1(eps=80)" in out

    @pytest.fixture
    def pyramid_store(self, point_log, tmp_path, capsys):
        path = tmp_path / "segments"
        code = main(
            [
                "serve-replay",
                str(point_log),
                "--epsilons",
                "10",
                "20",
                "40",
                "--store",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return path

    def test_query_level_resolves_against_the_ladder(self, pyramid_store, capsys):
        assert main(["query", str(pyramid_store), "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert "resolution: level 1 of ladder" in out
        assert "epsilon 20" in out

    def test_query_sla_picks_the_coarsest_qualifying_level(
        self, pyramid_store, capsys
    ):
        assert main(["query", str(pyramid_store), "--max-deviation", "25"]) == 0
        out = capsys.readouterr().out
        assert "resolution: level 1 of ladder" in out  # 20 is coarsest <= 25

    def test_query_unsatisfiable_sla_matches_nothing(self, pyramid_store, capsys):
        assert main(["query", str(pyramid_store), "--max-deviation", "5"]) == 0
        out = capsys.readouterr().out
        assert "no stored level within SLA 5" in out
        assert "matched 0 segment(s)" in out
        assert "read 0/" in out

    def test_query_level_out_of_range_is_reported(self, pyramid_store, capsys):
        assert main(["query", str(pyramid_store), "--level", "9"]) == 1
        assert "level 9 is not stored" in capsys.readouterr().err

    def test_query_level_and_epsilon_are_exclusive(self, pyramid_store, capsys):
        code = main(
            ["query", str(pyramid_store), "--level", "1", "--epsilon", "20"]
        )
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_query_level_json_carries_the_resolved_epsilon(
        self, pyramid_store, capsys
    ):
        assert main(["query", str(pyramid_store), "--level", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["epsilon"] == 40.0
        assert payload["spec"]["level"] is None
        assert all(s["epsilon"] == 40.0 for s in payload["segments"])
