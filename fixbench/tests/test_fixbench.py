"""Tiny-scale runs of the fix-to-query benchmark and its correctness gate.

Run from the repository root:  python3 -m pytest fixbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import traffic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    # Full-width fleets, so the cadences (counted in fleet fixes) still
    # checkpoint and read within a few ticks.
    "taxi-serve": traffic.Scale(devices=24, fixes_per_device=320),
    "idle-node": traffic.Scale(devices=16, fixes_per_device=1_200),
    "paper-batch": traffic.Scale(devices=1, fixes_per_device=200),
}


@pytest.fixture
def tiny(monkeypatch):
    for workload, scale in TINY.items():
        monkeypatch.setitem(traffic.SCALES, workload, scale)
    monkeypatch.setattr(traffic, "INSTANCES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "TRACED_SETUP_PROBES", 1)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(tiny, capsys, workload, trace, kind):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    result = _result(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gate_rejects_a_perturbed_stored_segment(tiny, capsys, monkeypatch):
    read = gate.stored_segments

    def perturbed(store, keys):
        stored = read(store, keys)
        segment = stored[keys[0]][0]
        moved = replace(segment.end, x=segment.end.x + 0.5)
        stored[keys[0]][0] = replace(segment, end=moved)
        return stored

    monkeypatch.setattr(gate, "stored_segments", perturbed)
    code = run.main(["--workload", "taxi-serve", "--seed", "3", "--seconds", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "correctness gate failed" in err
    assert '"correct"' not in out


def test_bound_check_catches_a_segment_moved_beyond_zeta():
    pool = traffic.generate("taxi-serve", 5, TINY["taxi-serve"])
    trajectory = pool.trajectories[0]
    segments = gate.stream_replay("operb", trajectory)
    assert gate.worst_deviation(trajectory, segments) <= traffic.EPSILON
    far = [
        replace(s, start=replace(s.start, y=s.start.y + 500.0), end=replace(s.end, y=s.end.y + 500.0))
        for s in segments
    ]
    assert gate.worst_deviation(trajectory, far) > traffic.EPSILON


def test_seed_fixes_the_traffic():
    scale = TINY["idle-node"]
    first = traffic.generate_pool("idle-node", 7, scale)
    again = traffic.generate_pool("idle-node", 7, scale)
    other = traffic.generate_pool("idle-node", 8, scale)
    assert traffic.pool_digest(first) == traffic.pool_digest(again)
    assert traffic.pool_digest(first) != traffic.pool_digest(other)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "fixbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "fixbench/run.py", "--workload", "taxi-serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
