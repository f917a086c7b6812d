"""Fix-to-query benchmark: one command, three seeded workloads.

    python3 fixbench/run.py --workload taxi-serve --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (plus a Chrome trace and a layer table under
``.fixbench/traces/``) with ``--trace 1``.  A wrong output exits 1; a
missing program exits 2.  See ``fixbench/README.md``.
"""

from __future__ import annotations

import time

BOOT = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("taxi-serve", "idle-node", "paper-batch")
SETUP_PROBES = 5
"""Fresh-process set-ups per untraced run (after one discarded warm-up)."""
TRACED_SETUP_PROBES = 2


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def percentile(values_ns: list[int], q: float) -> float:
    """The ``q``-th percentile of nanosecond samples, in milliseconds."""
    import numpy as np

    return float(np.percentile(np.asarray(values_ns, dtype=float), q)) / 1e6


def set_up(workload: str, devices: int, workdir: Path):
    """What a fresh workload process does before its first fix: open the
    store, start the hub and backend (node worker spawn and handshake
    included) and register every device.  Returns the teardown."""
    from pipelines import BATCH_ALGORITHMS, SERVE_CONFIGS, open_hub
    from repro import Simplifier
    from repro.store import open_store
    from traffic import EPSILON

    store = open_store(workdir / "store", writer=True)
    if workload == "paper-batch":
        for name in BATCH_ALGORITHMS:
            Simplifier(name, EPSILON)
        return store.close
    config = SERVE_CONFIGS[workload]
    hub = open_hub(
        config, store.sink_factory(epsilon=EPSILON, buffer_size=config.sink_buffer)
    )
    for i in range(devices):
        hub.register_device(f"dev-{i:04d}")

    def teardown() -> None:
        hub.close()
        store.close()

    return teardown


def one_round(workload: str, traffic, workdir: Path, tracer):
    from pipelines import SERVE_CONFIGS, batch_round, serve_round

    if workload == "paper-batch":
        return batch_round(traffic, workdir, tracer)
    return serve_round(traffic, SERVE_CONFIGS[workload], workdir, tracer)


def probe(kind: str, workload: str, seed: int, scale: str) -> int:
    """Child side of a fresh-process measurement; prints one JSON line.

    ``setup``: set up, report, tear down.  ``memory``: generate the run's
    first input, then run one round of it; the round's peak resident
    memory (this process plus the node worker) is then its own.
    """
    bootstrap()  # imports repro, which set-up includes
    import_s = time.perf_counter() - BOOT
    from spans import Tracer
    from traffic import INSTANCES, Scale, generate

    devices, fixes_per_device = (int(n) for n in scale.split("x"))
    workdir = ROOT / ".fixbench" / f"probe-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if kind == "setup":
            teardown = set_up(workload, devices, workdir)
            print(json.dumps({"import_s": import_s}), flush=True)
            teardown()
        else:
            traffic = generate(workload, seed * INSTANCES, Scale(devices, fixes_per_device))
            round_ = one_round(workload, traffic, workdir, Tracer(enabled=False))
            round_.store.close()
            print(json.dumps({"peak_rss_mb": round_.rss_mb}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def spawn_probe(kind: str, workload: str, seed: int) -> tuple[float, dict]:
    """Run :func:`probe` in a fresh process at this run's scale; returns the
    seconds from spawn to its line, and the line."""
    from traffic import SCALES

    scale = SCALES[workload]
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--probe", kind, "--workload", workload,
         "--seed", str(seed), "--scale", f"{scale.devices}x{scale.fixes_per_device}"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"{kind} probe for {workload} exited with {child.returncode}")
    return elapsed, json.loads(line)


def measure_setup(workload: str, probes: int) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh workload process to its ready line."""
    ready, imports = [], []
    for index in range(probes + 1):
        elapsed, line = spawn_probe("setup", workload, 0)
        if index:  # the first probe warms bytecode and page caches
            ready.append(elapsed)
            imports.append(line["import_s"])
    return ready, imports


def settle() -> None:
    """Commit pending file-system work (writeback, freed blocks) now, so
    it does not land inside a later timing."""
    os.sync()


def run_rounds(workload, pool, workdir, seconds, tracers):
    """Repeat rounds until ``seconds`` pass, every input ran under every
    tracer and the last round used the last tracer; round ``r`` replays
    ``pool[r // len(tracers) % len(pool)]`` under ``tracers[r % len(tracers)]``.
    Only the last round keeps its store and outputs open.

    Each round writes into a directory of its own, and none is deleted
    until the run ends: when each round deleted the previous round's store,
    the store writes of the following rounds ran about a third slower and
    grew slower through the run (2-vCPU shared VM, ext4).
    """
    rounds = []
    settle()
    deadline = time.perf_counter() + seconds
    while (
        len(rounds) < len(pool) * len(tracers)
        or len(rounds) % len(tracers)
        or time.perf_counter() < deadline
    ):
        traffic = pool[len(rounds) // len(tracers) % len(pool)]
        tracer = tracers[len(rounds) % len(tracers)]
        if rounds:
            rounds[-1].store.close()
            rounds[-1].store = None
            rounds[-1].outputs = {}
        # Everything alive now is the benchmark's own (the inputs, earlier
        # rounds' samples).  Frozen, it is left out of the collections the
        # round triggers, which otherwise scanned the whole input pool and
        # landed tens of milliseconds at random in timed calls.
        gc.collect()
        gc.freeze()
        round_dir = workdir / f"round-{len(rounds)}"
        round_dir.mkdir()
        rounds.append(one_round(workload, traffic, round_dir, tracer))
    return rounds


def check_output(workload, rounds) -> None:
    """Gate the last round's stored output; each input stored the same
    segment count in every round that replayed it."""
    from gate import GateError, check_batch, check_serve, stored_segments
    from pipelines import BATCH_ALGORITHMS

    for traffic in {id(r.traffic): r.traffic for r in rounds}.values():
        counts = {r.segments for r in rounds if r.traffic is traffic}
        if len(counts) != 1:
            raise GateError(f"rounds stored different segment counts: {sorted(counts)}")
    last = rounds[-1]
    if workload == "paper-batch":
        stored = stored_segments(last.store, list(last.outputs))
        check_batch(last.traffic, last.outputs, stored, BATCH_ALGORITHMS)
    else:
        stored = stored_segments(last.store, last.traffic.device_ids)
        check_serve(last.traffic, stored, node=workload == "idle-node")


def end_to_end(rounds, setup: list[float], rss_mb: float) -> dict[str, float]:
    def pooled(attribute: str) -> list[int]:
        return [value for round_ in rounds for value in getattr(round_, attribute)]

    first_of_each = {id(r.traffic): r for r in reversed(rounds)}.values()
    push, latency, query = pooled("push_ns"), pooled("latency_ns"), pooled("query_ns")
    return {
        "setup_s": statistics.median(setup),
        "fixes_per_s": statistics.median(round_.fixes_per_s for round_ in rounds),
        "push_p50_ms": percentile(push, 50),
        "push_p75_ms": percentile(push, 75),
        "segment_latency_p50_ms": percentile(latency, 50),
        "segment_latency_p75_ms": percentile(latency, 75),
        "query_p50_ms": percentile(query, 50),
        "query_p90_ms": percentile(query, 90),
        "checkpoint_p50_ms": percentile(pooled("checkpoint_ns"), 50),
        "compression_ratio": sum(r.segments for r in first_of_each)
        / sum(r.fixes for r in first_of_each),
        "peak_rss_mb": rss_mb,
    }


def traced(workload, seed, pool, workdir, seconds, imports):
    """Per-layer metrics and the workload's own rounds: paired untraced and
    traced rounds, then layer replays of the first input."""
    from layers import MOVES, layer_metrics
    from spans import Tracer

    tracer = Tracer(enabled=True)
    tracer.phase = "native"
    rounds = run_rounds(workload, pool, workdir, seconds, [Tracer(False), tracer])
    plain = statistics.median(r.fixes_per_s for r in rounds[0::2])
    spanned = statistics.median(r.fixes_per_s for r in rounds[1::2])
    metrics, replays = layer_metrics(
        workload, rounds[1::2], pool[0], workdir / "layers", tracer
    )
    failures = [*rounds, *replays]
    metrics.update(
        {
            "hub.errors": sum(r.failures.get("hub_errors", 0) for r in failures),
            "hub.sink_failures": sum(r.sink_failures for r in failures),
            "hub.dropped_points": sum(r.failures.get("dropped_points", 0) for r in failures),
            "query.failed": sum(r.failures["query_failed"] for r in failures),
            "setup.import_s": statistics.median(imports),
            "trace.overhead_share": 1.0 - spanned / plain,
        }
    )
    out = ROOT / ".fixbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    tracer.write_chrome(out / f"{stem}.json")
    table = tracer.layer_table()
    (out / f"{stem}-layers.json").write_text(
        json.dumps({"layers": table, "metrics": metrics, "moves": MOVES}, indent=1)
    )
    print(f"{'phase':8} {'layer':11} {'count':>7} {'busy_ms':>10} {'self_ms':>10}", file=sys.stderr)
    for row in table:
        print(
            f"{row['phase']:8} {row['layer']:11} {row['count']:7d} "
            f"{row['busy_ms']:10.2f} {row['self_ms']:10.2f}",
            file=sys.stderr,
        )
    for name in MOVES:
        print(f"{name:34} {metrics[name]:14.6g}  moves {MOVES[name]}", file=sys.stderr)
    return metrics, rounds


def load_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "memory"), help=argparse.SUPPRESS)
    parser.add_argument("--scale", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args.probe, args.workload, args.seed, args.scale)
    bootstrap()
    from gate import GateError
    from spans import Tracer
    from traffic import generate_pool, pool_digest

    seed = args.seed % 2**32
    workdir = ROOT / ".fixbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup, imports = measure_setup(
            args.workload, TRACED_SETUP_PROBES if args.trace else SETUP_PROBES
        )
        pool = generate_pool(args.workload, seed)
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "fixes": [traffic.n_fixes for traffic in pool],
                    "traffic_sha256": pool_digest(pool),
                }
            ),
            flush=True,
        )
        if args.trace:
            metrics, rounds = traced(
                args.workload, args.seed, pool, workdir, args.seconds, imports
            )
            units = load_units("per_layer")
        else:
            rounds = run_rounds(
                args.workload, pool, workdir, args.seconds, [Tracer(enabled=False)]
            )
            _, memory = spawn_probe("memory", args.workload, seed)
            metrics = end_to_end(rounds, setup, memory["peak_rss_mb"])
            units = load_units("end_to_end")
        print(f"{len(rounds)} rounds over {len(pool)} inputs", file=sys.stderr)
        try:
            check_output(args.workload, rounds)
        except GateError as error:
            print(f"correctness gate failed: {error}", file=sys.stderr)
            return 1
        rounds[-1].store.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        settle()
    result = {
        "correct": True,
        "attempted": sum(round_.attempted for round_ in rounds),
        "failed": sum(round_.failed for round_ in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
