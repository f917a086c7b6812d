"""Implementations of the ``repro-traj`` sub-commands.

Each function receives the parsed :mod:`argparse` namespace and returns a
process exit code.  They are kept separate from the argument-parser wiring in
:mod:`repro.cli.main` so they can be unit-tested directly.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from pathlib import Path

from ..api import Simplifier, list_descriptors
from ..exceptions import ReproError
from ..datasets.generator import generate_dataset
from ..datasets.profiles import get_profile
from ..experiments import EXPERIMENTS, WorkloadScale, standard_datasets
from ..experiments.reporting import format_text_table
from ..metrics.summary import evaluate
from ..trajectory.io import read_csv, read_plt, write_csv, write_jsonl, write_piecewise_csv
from ..trajectory.model import Trajectory

__all__ = [
    "cmd_list_algorithms",
    "cmd_compress",
    "cmd_evaluate",
    "cmd_generate",
    "cmd_experiment",
    "cmd_query",
    "cmd_serve_replay",
    "cmd_lint",
    "load_trajectory",
]

DEFAULT_LINT_PATHS = ("src/repro",)
DEFAULT_BASELINE = "analysis_baseline.json"


class _TeeSink:
    """Fan one device's segments out to several sinks.

    Used by ``serve-replay --store`` to feed the per-device store sink and
    the shared CSV/statistics sink from one hub attachment.  Optional
    lifecycle calls are forwarded to every child that defines them; a
    shared child may be closed once per tee, which every provided sink
    tolerates.
    """

    def __init__(self, sinks) -> None:
        self._sinks = tuple(sinks)

    def accept(self, segment) -> None:
        for sink in self._sinks:
            sink.accept(segment)

    def flush(self) -> None:
        from ..streaming.sinks import flush_sink

        for sink in self._sinks:
            flush_sink(sink)

    def close(self) -> None:
        from ..streaming.sinks import close_sink

        for sink in self._sinks:
            close_sink(sink)


def cmd_lint(args) -> int:
    """``repro-traj lint`` — run the invariant linter (see :mod:`repro.analysis`).

    Lints the requested paths (default ``src/repro``) with the registered
    ``RPA...`` rules, subtracts the committed baseline, and exits non-zero
    when any *new* finding remains.  ``--rule`` restricts to specific rules,
    ``--format json`` emits a machine-readable report, ``--baseline`` points
    at an alternative allowlist (the default ``analysis_baseline.json`` is
    used only when it exists).
    """
    from .. import analysis

    paths = list(args.paths) if args.paths else list(DEFAULT_LINT_PATHS)
    rule_ids = list(args.rule) if args.rule else None
    findings = analysis.analyze_paths(paths, rule_ids=rule_ids)
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE
    baseline = (
        analysis.load_baseline(baseline_path)
        if baseline_path is not None
        else analysis.Baseline()
    )
    new, baselined = baseline.split(findings)
    print(analysis.format_findings(new, fmt=args.format, baselined=len(baselined)))
    return 1 if new else 0


def load_trajectory(path: str) -> Trajectory:
    """Load a trajectory from a ``.csv`` or GeoLife ``.plt`` file."""
    file_path = Path(path)
    if file_path.suffix.lower() == ".plt":
        return read_plt(file_path)
    return read_csv(file_path, trajectory_id=file_path.stem)


def cmd_list_algorithms(args) -> int:
    """``repro-traj algorithms`` — print the descriptor capability table.

    One row per registered algorithm: streaming and one-pass capability, the
    error metric the bound constrains, and the accepted options — the
    operator's view of the unified registry.  ``--names`` prints bare names
    for scripting.
    """
    descriptors = list_descriptors()
    if getattr(args, "names", False):
        for descriptor in descriptors:
            print(descriptor.name)
        return 0
    columns = [
        "name", "streaming", "one-pass", "checkpoint", "batched",
        "error metric", "options", "summary",
    ]
    rows = []
    for descriptor in descriptors:
        options = sorted(descriptor.accepted_kwargs)
        streaming_only = set(descriptor.streaming_kwargs or ()) - set(descriptor.accepted_kwargs)
        if streaming_only:
            options.append(f"(+{len(streaming_only)} streaming)")
        rows.append(
            {
                "name": descriptor.name,
                "streaming": "yes" if descriptor.streaming else "no",
                "one-pass": "yes" if descriptor.one_pass else "no",
                # Batch-only algorithms checkpoint through the buffered
                # adapter: capable, at linear snapshot size.
                "checkpoint": "yes" if descriptor.checkpointable
                else ("buffered" if descriptor.snapshot_capable else "no"),
                # Likewise for block ingest: the adapter appends whole
                # blocks in O(1); non-batched streaming algorithms fall
                # back to a correct per-point loop.
                "batched": "yes" if descriptor.batched
                else ("buffered" if descriptor.block_capable else "fallback"),
                "error metric": descriptor.error_metric,
                "options": ", ".join(options) or "-",
                "summary": descriptor.summary,
            }
        )
    print(format_text_table(columns, rows))
    return 0


def cmd_compress(args) -> int:
    """``repro-traj compress`` — simplify one trajectory file."""
    trajectory = load_trajectory(args.input)
    representation = Simplifier(args.algorithm, args.epsilon).run(trajectory)
    if args.output:
        write_piecewise_csv(representation, args.output)
    report = evaluate(trajectory, representation, args.epsilon)
    print(
        f"{args.algorithm}: {len(trajectory)} points -> {representation.n_segments} segments "
        f"(ratio {report.compression_ratio:.4f}, avg error {report.average_error:.2f}, "
        f"max error {report.max_error:.2f}, bound "
        f"{'satisfied' if report.error_bound_satisfied else 'VIOLATED'})"
    )
    return 0


def cmd_evaluate(args) -> int:
    """``repro-traj evaluate`` — compare several algorithms on one file."""
    trajectory = load_trajectory(args.input)
    algorithms = args.algorithms or ["dp", "fbqs", "operb", "operb-a"]
    rows = []
    for name in algorithms:
        representation = Simplifier(name, args.epsilon).run(trajectory)
        report = evaluate(trajectory, representation, args.epsilon)
        rows.append(report.as_dict())
        print(
            f"{name:>12}: segments {representation.n_segments:>6} "
            f"ratio {report.compression_ratio:.4f} "
            f"avg err {report.average_error:8.3f} max err {report.max_error:8.3f} "
            f"bound {'ok' if report.error_bound_satisfied else 'VIOLATED'}"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2))
    return 0


def cmd_generate(args) -> int:
    """``repro-traj generate`` — synthesise a dataset to CSV/JSONL files."""
    profile = get_profile(args.profile)
    fleet = generate_dataset(
        profile,
        n_trajectories=args.trajectories,
        points_per_trajectory=args.points,
        seed=args.seed,
    )
    output = Path(args.output)
    if output.suffix.lower() == ".jsonl":
        write_jsonl(fleet, output)
        print(f"wrote {len(fleet)} trajectories to {output}")
        return 0
    output.mkdir(parents=True, exist_ok=True)
    for trajectory in fleet:
        write_csv(trajectory, output / f"{trajectory.trajectory_id}.csv")
    print(f"wrote {len(fleet)} trajectories to {output}/")
    return 0


def cmd_experiment(args) -> int:
    """``repro-traj experiment`` — run one (or all) paper experiments."""
    scale = WorkloadScale("cli", args.trajectories, args.points)
    datasets = standard_datasets(scale, seed=args.seed)
    identifiers = list(EXPERIMENTS) if args.id == "all" else [args.id]
    unknown = [identifier for identifier in identifiers if identifier not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    outputs = []
    for identifier in identifiers:
        run = EXPERIMENTS[identifier]
        if identifier == "fig12":
            # Figure 12 generates its own per-size workload.
            result = run(seed=args.seed, sizes=(args.points // 2, args.points))
        else:
            result = run(datasets, seed=args.seed)
        results = result if isinstance(result, list) else [result]
        for item in results:
            print(item.to_text())
            print()
            outputs.append(item)
    if args.markdown:
        Path(args.markdown).write_text("\n\n".join(item.to_markdown() for item in outputs))
        print(f"wrote markdown report to {args.markdown}")
    return 0


def cmd_serve_replay(args) -> int:
    """``repro-traj serve-replay`` — replay a multi-device log through a hub.

    The ingest-service rehearsal: a JSONL point log (or the seeded synthetic
    traffic from ``--synthetic``) is routed through a
    :class:`repro.streaming.StreamHub`, optionally checkpointing every N
    points, with ``--resume`` picking an interrupted replay back up from a
    checkpoint — the downstream segment stream is byte-identical to an
    uninterrupted run.  ``--store DIR`` persists every finalised segment
    into the segment store at ``DIR`` (one :class:`repro.store.StoreSink`
    per device), ready for ``repro-traj query``.  ``--epsilons`` replaces
    the single error bound with a strictly ascending ladder served in the
    same single pass (a :class:`repro.streaming.PyramidSession` per
    device); with ``--store`` every coarse level is persisted level-tagged
    alongside the finest one.
    """
    from ..perf.workloads import build_device_log
    from ..streaming.checkpoint import (
        load_checkpoint,
        read_point_log,
        restore_hub,
        save_checkpoint,
    )
    from ..streaming.hub import StreamHub
    from ..streaming.pyramid import validate_epsilon_ladder
    from ..streaming.sinks import CsvSegmentSink, StatisticsSink

    if bool(args.input) == bool(args.synthetic):
        print(
            "error: pass either a point-log file or --synthetic PROFILE (not both)",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint:
        # Resume without a checkpoint path would silently stop checkpointing.
        print("error: --resume requires --checkpoint to keep checkpointing", file=sys.stderr)
        return 2
    if args.checkpoint_every and not args.checkpoint:
        print("error: --checkpoint-every requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.epsilons and args.resume:
        # A resumed hub takes its ladder from the checkpoint; a divergent
        # flag here could only lie about what is being served.
        print(
            "error: --epsilons conflicts with --resume (the checkpoint "
            "carries the pyramid ladder)",
            file=sys.stderr,
        )
        return 2

    ladder: tuple[float, ...] | None = None
    if args.epsilons:
        ladder = validate_epsilon_ladder(args.epsilons)
    resume_payload: dict | None = None
    if args.resume:
        # Load the checkpoint up front: a pyramid checkpoint decides which
        # epsilon the store's finest-level sinks tag and whether coarse
        # level sinks must be attached.
        resume_payload = load_checkpoint(args.resume)
        hub_section = resume_payload.get("hub")
        stored_epsilons = hub_section.get("epsilons") if isinstance(hub_section, dict) else None
        if stored_epsilons is not None:
            ladder = validate_epsilon_ladder(stored_epsilons)

    if args.synthetic:
        records = iter(
            build_device_log(args.synthetic, args.devices, args.points, seed=args.seed)
        )
    else:
        # Streamed, not materialised: a fleet log can dwarf process memory
        # while the hub itself stays O(devices).
        records = read_point_log(args.input)

    if args.output:
        sink = CsvSegmentSink(args.output)
    else:
        sink = StatisticsSink()
    store = None
    if args.store:
        from ..store import open_store

        store = open_store(args.store, time_bucket=args.time_bucket)

    # With --store each device gets its own StoreSink teed with the shared
    # CSV/statistics sink; without it the shared sink serves every device.
    finest_epsilon = ladder[0] if ladder is not None else args.epsilon
    if store is not None:
        store_factory = store.sink_factory(epsilon=finest_epsilon)

        def sink_factory(device_id: str) -> _TeeSink:
            return _TeeSink((store_factory(device_id), sink))

        sinks: dict = {"sink_factory": sink_factory}
        if ladder is not None and len(ladder) > 1:
            sinks["level_sink_factory"] = store.pyramid_sink_factory(ladder)
    else:
        sinks = {"shared_sink": sink}
    hub = None
    replay_ok = False
    try:
        skip = 0
        if args.resume:
            # --shards re-shards the restored devices; omitted, the
            # checkpoint's own layout is kept.
            hub = restore_hub(
                resume_payload,
                shards=args.shards,
                backend=args.backend,
                workers=args.workers,
                block_size=args.block_size,
                **sinks,
            )
            skip = hub.points_pushed + hub.stats().dropped_points
            print(
                f"resumed {len(hub)} device stream(s) from {args.resume} onto "
                f"{hub.n_shards} shard(s) (skipping {skip} points)"
            )
        else:
            hub = StreamHub(
                algorithm=args.algorithm,
                epsilon=None if ladder is not None else args.epsilon,
                epsilons=ladder,
                shards=args.shards if args.shards is not None else 4,
                backend=args.backend,
                workers=args.workers,
                block_size=args.block_size,
                **sinks,
            )
        if skip:
            # Drain the already-ingested prefix outside the timed window so
            # a resume near the end of a large log reports honest throughput.
            next(itertools.islice(records, skip - 1, skip), None)
        replayed = 0
        started = time.perf_counter()
        # Records ship in batches: push_many lets the concurrent backends
        # ride chunked shard messages (regrouped worker-side into per-device
        # SoA blocks of up to --block-size points) instead of one message
        # per point.  The batch is capped so a huge --checkpoint-every
        # cannot buffer the log in memory (the hub must stay O(devices),
        # not O(points)); checkpoints land every --checkpoint-every
        # replayed points, to within one batch when the interval exceeds
        # the cap.
        batch_size = min(args.checkpoint_every or args.block_size, args.block_size)
        batch: list = []
        since_checkpoint = 0
        for record in records:
            batch.append(record)
            if len(batch) >= batch_size:
                hub.push_many(batch)
                replayed += len(batch)
                since_checkpoint += len(batch)
                batch.clear()
                if args.checkpoint_every and since_checkpoint >= args.checkpoint_every:
                    save_checkpoint(hub, args.checkpoint)
                    since_checkpoint = 0
        if batch:
            hub.push_many(batch)
            replayed += len(batch)
        hub.finish_all()
        elapsed = time.perf_counter() - started
        if args.checkpoint:
            save_checkpoint(hub, args.checkpoint)
            print(f"wrote final checkpoint to {args.checkpoint}")
        stats = hub.stats()
        replay_ok = True
    finally:
        try:
            if hub is not None:
                hub.close()
        except ReproError:
            # The hub closes with a library error (a worker that died, a
            # not-yet-surfaced device failure); when the replay already
            # failed it must neither mask the original exception nor keep
            # the sink from being closed.
            if replay_ok:
                raise
        finally:
            if args.output:
                sink.close()
            if store is not None:
                # Closing the hub flushed every StoreSink; release the
                # store's writer lock so this process can reopen it.
                store.close()

    throughput = replayed / elapsed if elapsed > 0.0 else float("inf")
    print(
        f"replayed {replayed} points from {stats.devices} device(s) across "
        f"{hub.n_shards} shard(s) in {elapsed:.3f}s ({throughput:,.0f} points/s)"
    )
    print(
        f"segments emitted: {stats.segments_emitted}  max open-segment lag: "
        f"{stats.max_lag}  failed devices: {stats.failed}  "
        f"sink failures: {stats.sink_failures}"
    )
    print(
        f"transport: batches shipped: {stats.batches_shipped}  "
        f"bytes shipped: {stats.bytes_shipped}  "
        f"frames decoded: {stats.frames_decoded}"
    )
    if stats.epsilons is not None and stats.segments_by_level is not None:
        per_level = "  ".join(
            f"L{index}(eps={epsilon:g}): {count}"
            for index, (epsilon, count) in enumerate(
                zip(stats.epsilons, stats.segments_by_level)
            )
        )
        print(f"pyramid levels: {per_level}")
    for error in hub.errors:
        print(f"  {error}", file=sys.stderr)
    if args.output:
        print(f"wrote segments to {args.output}")
    if store is not None:
        print(
            f"persisted {store.n_segments} segment(s) to store {args.store} "
            f"({len(store.devices())} device(s), {store.n_partitions} partition(s))"
        )
    return 0 if not hub.errors else 1


def _parse_window(text: str) -> tuple[float, float]:
    """Parse the CLI's ``T0:T1`` time-window syntax."""
    from ..exceptions import InvalidParameterError

    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidParameterError(
            f"--window expects T0:T1 (two floats separated by ':'), got {text!r}"
        )
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as error:
        raise InvalidParameterError(
            f"--window expects T0:T1 (two floats separated by ':'), got {text!r}"
        ) from error


def _parse_bbox(text: str) -> tuple[float, float, float, float]:
    """Parse the CLI's ``XMIN,YMIN,XMAX,YMAX`` bounding-box syntax."""
    from ..exceptions import InvalidParameterError

    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidParameterError(
            f"--bbox expects XMIN,YMIN,XMAX,YMAX (four floats), got {text!r}"
        )
    try:
        x_min, y_min, x_max, y_max = (float(part) for part in parts)
    except ValueError as error:
        raise InvalidParameterError(
            f"--bbox expects XMIN,YMIN,XMAX,YMAX (four floats), got {text!r}"
        ) from error
    return x_min, y_min, x_max, y_max


def _parse_aggregate(text: str) -> tuple[float, float | None]:
    """Parse the CLI's ``WIDTH[:STEP]`` sliding-window syntax."""
    from ..exceptions import InvalidParameterError

    parts = text.split(":")
    if len(parts) not in (1, 2):
        raise InvalidParameterError(
            f"--aggregate expects WIDTH or WIDTH:STEP, got {text!r}"
        )
    try:
        width = float(parts[0])
        step = float(parts[1]) if len(parts) == 2 else None
    except ValueError as error:
        raise InvalidParameterError(
            f"--aggregate expects WIDTH or WIDTH:STEP, got {text!r}"
        ) from error
    return width, step


def cmd_query(args) -> int:
    """``repro-traj query`` — query a segment store with data skipping.

    Builds one :class:`repro.store.QuerySpec` from the flags and runs it
    through :meth:`repro.store.Store.query` (or
    :meth:`~repro.store.Store.window_aggregates` with ``--aggregate``).
    ``--level``/``--max-deviation`` select a resolution from the store's
    epsilon ladder (a pyramid store holds one level per served epsilon);
    the store resolves them to a concrete epsilon before scanning.
    Text output leads with the pruning accounting — how many partitions the
    zone maps let the query skip — because that number, not the match list,
    is what the store exists for; ``--json`` emits the full typed result.
    """
    from ..store import QuerySpec, open_store

    store = open_store(args.store, create=False)
    spec = QuerySpec(
        device=args.device,
        window=_parse_window(args.window) if args.window else None,
        bbox=_parse_bbox(args.bbox) if args.bbox else None,
        epsilon=args.epsilon,
        level=args.level,
        max_deviation=args.max_deviation,
    )

    def print_resolution(resolved_spec) -> None:
        # Show what the level/SLA selector resolved to: the result's spec
        # carries the concrete epsilon the store substituted (or none when
        # no stored level honours the SLA).
        if args.level is None and args.max_deviation is None:
            return
        ladder = store.levels()
        if resolved_spec.epsilon is not None:
            index = ladder.index(resolved_spec.epsilon)
            print(
                f"resolution: level {index} of ladder "
                f"{[f'{eps:g}' for eps in ladder]} -> epsilon "
                f"{resolved_spec.epsilon:g}"
            )
        else:
            print(
                f"resolution: no stored level within SLA "
                f"{args.max_deviation:g} (ladder "
                f"{[f'{eps:g}' for eps in ladder]}); nothing matches"
            )

    if args.aggregate:
        width, step = _parse_aggregate(args.aggregate)
        result = store.window_aggregates(spec, width=width, step=step)
        if args.json:
            print(json.dumps(result.as_dict(), indent=2))
            return 0
        print_resolution(result.spec)
        print(
            f"{len(result)} window(s) of width {width:g} over store "
            f"{args.store} ({store.n_partitions} partition(s))"
        )
        print(
            f"pushdown: {result.partitions_pushdown} partition(s) answered "
            f"from zone-map sidecars, {result.partitions_scanned} scanned, "
            f"{result.partitions_skipped} pruned "
            f"(scan fraction {result.scan_fraction:.1%})"
        )
        for aggregate in result.windows:
            print(
                f"  [{aggregate.t_start:g}, {aggregate.t_end:g}]: "
                f"{aggregate.segments} segment(s) from {aggregate.devices} "
                f"device(s), {aggregate.points} point(s), "
                f"length {aggregate.total_length:.3f}"
            )
        return 0

    result = store.query(spec, full_scan=args.full_scan)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0
    print_resolution(result.spec)
    scan_note = "full scan (pruning bypassed)" if result.full_scan else (
        f"skipped {result.partitions_skipped} via zone maps"
    )
    print(
        f"store {args.store}: {store.n_partitions} partition(s), "
        f"{store.n_segments} segment(s), {len(store.devices())} device(s)"
    )
    print(
        f"matched {len(result)} segment(s) from {len(result.devices())} "
        f"device(s); read {result.partitions_scanned}/{result.partitions_total} "
        f"partition(s) ({result.scan_fraction:.1%}), {scan_note}"
    )
    shown = result.segments if args.limit == 0 else result.segments[: args.limit]
    for stored in shown:
        record = stored.record
        print(
            f"  {stored.device_id}  eps={stored.epsilon:g}  "
            f"t=[{record.start.t:g}, {record.end.t:g}]  "
            f"({record.start.x:.3f}, {record.start.y:.3f}) -> "
            f"({record.end.x:.3f}, {record.end.y:.3f})  "
            f"points={record.point_count}"
        )
    if len(result) > len(shown):
        print(f"  ... {len(result) - len(shown)} more (use --limit 0 or --json)")
    return 0


def cmd_compact(args) -> int:
    """``repro-traj compact`` — compact a segment store's partitions.

    Takes the store's single-writer lock, folds every multi-chunk (or
    crash-damaged) partition into single-chunk form with byte-identical
    query results, and prints what it reclaimed.  Doubles as the physical
    repair path after torn-tail recovery: salvaged partitions get their
    zone maps rewritten exact, restoring aggregate-pushdown eligibility.
    """
    from ..store import open_store

    with open_store(args.store, create=False, writer=True) as store:
        recovered = store.recovery
        report = store.compact(device=args.device, min_chunks=args.min_chunks)
    if args.json:
        payload = {"recovery": recovered.as_dict(), "compaction": report.as_dict()}
        print(json.dumps(payload, indent=2))
        return 0
    if recovered.damaged:
        print(
            f"recovered {recovered.damaged} torn partition(s) on open "
            f"({recovered.dropped_bytes} byte(s) of torn tail dropped)"
        )
    print(
        f"compacted {report.partitions_compacted}/{report.partitions_considered} "
        f"partition(s) in store {args.store}: {report.chunks_merged} chunk(s) "
        f"merged, {report.partitions_removed} empty partition(s) removed"
    )
    for item in report.compacted:
        action = "removed" if item.chunks_after == 0 else (
            f"{item.chunks_before} -> {item.chunks_after} chunk(s)"
        )
        note = ", repaired" if item.repaired else ""
        print(
            f"  {item.key.device_id} bucket {item.key.bucket}: {action}, "
            f"{item.segments} segment(s){note}"
        )
    return 0
