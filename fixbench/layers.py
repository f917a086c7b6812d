"""The traced run's layer replays and per-layer metrics.

Every traced run replays its workload's traffic through each layer, so
every per-layer metric has a value on every workload:

* ``session`` -- per-device ``open_stream().push`` and ``push_block``;
* ``batch`` -- ``Simplifier.run`` with OPERB, OPERB-A, DP and FBQS;
* ``wire`` -- ``encode_frame``/``decode_frame`` of the batches a node hub
  ships (one per tick);
* ``serial`` / ``node`` -- a traced serve round in the taxi-serve or
  idle-node shape, run only for the backend the workload's own rounds
  (phase ``native``) do not use;
* ``bare`` -- the same ticks through a sink-less serial and node hub, the
  single-threaded baseline of ``exec.node_over_serial``.

Hub, exec, checkpoint, sink, store and query metrics come from the serve
rounds of the matching backend: the workload's own traced rounds where it
has them, else the replay round.

:data:`MOVES` names the end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter_ns

from repro import Simplifier
from repro.streaming import (
    POINT_BATCH_FORMATS,
    decode_frame,
    encode_frame,
    group_records,
    shard_index,
)
from repro.trajectory import PointBlock

from pipelines import (
    NODE_SERVE,
    SERIAL_SERVE,
    SERVE_CONFIGS,
    Round,
    ServeConfig,
    open_hub,
    serve_round,
)
from spans import Tracer
from traffic import EPSILON, ROUNDS_PER_TICK, Traffic

BLOCK_FIXES = ROUNDS_PER_TICK["idle-node"]
"""Fixes per ``push_block`` call: a device's share of one idle-node tick."""

LAYER_ALGORITHMS = ("operb", "operb-a", "dp", "fbqs")

MOVES = {
    "session.push_us_per_fix": "fixes_per_s, push_p50_ms on taxi-serve; fixes_per_s on paper-batch",
    "session.push_block_us_per_fix": "fixes_per_s on idle-node",
    "batch.operb_us_per_fix": "fixes_per_s on paper-batch",
    "batch.operb-a_us_per_fix": "fixes_per_s on paper-batch",
    "batch.dp_us_per_fix": "none (reference)",
    "batch.fbqs_us_per_fix": "none (reference)",
    "batch.operb_over_dp": "none (Fig 12 claim holds above 1)",
    "hub.push_self_us_per_fix": "fixes_per_s, push_p50_ms, push_p75_ms on taxi-serve",
    "hub.routing_us_per_fix": "fixes_per_s, push_p50_ms, push_p75_ms on taxi-serve",
    "hub.finish_all_ms": "fixes_per_s, push_p50_ms, push_p75_ms on taxi-serve",
    "checkpoint.snapshot_ms": "checkpoint_p50_ms on taxi-serve, idle-node",
    "checkpoint.write_ms": "checkpoint_p50_ms on taxi-serve, idle-node",
    "checkpoint.bytes": "checkpoint_p50_ms on taxi-serve, idle-node",
    "wire.encode_us_per_fix": "fixes_per_s, push_p75_ms on idle-node",
    "wire.decode_us_per_fix": "fixes_per_s, push_p75_ms on idle-node",
    "wire.bytes_per_fix": "fixes_per_s, push_p75_ms on idle-node",
    "wire.batches_shipped": "fixes_per_s, push_p75_ms on idle-node",
    "exec.ask_after_tell_ms": "checkpoint_p50_ms on idle-node",
    "exec.drain_ms": "fixes_per_s on idle-node",
    "exec.parent_busy_share": "fixes_per_s on idle-node (which side is the bottleneck)",
    "exec.start_s": "setup_s on idle-node",
    "exec.node_over_serial": "fixes_per_s on idle-node",
    "sink.accept_us": "fixes_per_s, push_p50_ms on taxi-serve",
    "store.append_ms": "fixes_per_s on taxi-serve",
    "store.appends": "fixes_per_s on taxi-serve",
    "store.segments_written": "fixes_per_s on taxi-serve",
    "store.partitions": "fixes_per_s on taxi-serve",
    "store.files": "fixes_per_s on taxi-serve",
    "store.bytes_on_disk": "fixes_per_s on taxi-serve",
    "query.partitions_scanned": "query_p50_ms, query_p90_ms on taxi-serve",
    "query.partitions_total": "query_p50_ms, query_p90_ms on taxi-serve",
    "query.scan_fraction": "query_p50_ms, query_p90_ms on taxi-serve",
    "query.segments_scanned": "query_p50_ms, query_p90_ms on taxi-serve",
    "query.us_per_partition_scanned": "query_p50_ms, query_p90_ms on taxi-serve",
    "aggregate.pushdown_fraction": "query_p50_ms, query_p90_ms on taxi-serve",
    "hub.errors": "failed (all workloads)",
    "hub.sink_failures": "failed (all workloads)",
    "hub.dropped_points": "failed (all workloads)",
    "query.failed": "failed (all workloads)",
    "setup.import_s": "setup_s on all workloads",
    "trace.overhead_share": "none (traced vs untraced fixes_per_s of the workload)",
}


def _session_replays(traffic: Traffic, tracer: Tracer) -> dict[str, float]:
    push_ns = block_ns = 0
    for trajectory in traffic.trajectories:
        stream = Simplifier("operb", EPSILON).open_stream(keep_segments=False)
        start = perf_counter_ns()
        for point in trajectory:
            stream.push(point)
        stream.finish()
        end = perf_counter_ns()
        tracer.span("session.push", start, end)
        push_ns += end - start

        blocks = PointBlock(trajectory.xs, trajectory.ys, trajectory.ts).split(BLOCK_FIXES)
        stream = Simplifier("operb", EPSILON).open_stream(keep_segments=False)
        start = perf_counter_ns()
        for block in blocks:
            stream.push_block(block)
        stream.finish()
        end = perf_counter_ns()
        tracer.span("session.push_block", start, end)
        block_ns += end - start
    return {
        "session.push_us_per_fix": push_ns / 1e3 / traffic.n_fixes,
        "session.push_block_us_per_fix": block_ns / 1e3 / traffic.n_fixes,
    }


def _batch_replays(traffic: Traffic, tracer: Tracer) -> dict[str, float]:
    out = {}
    for algorithm in LAYER_ALGORITHMS:
        simplifier = Simplifier(algorithm, EPSILON)
        total = 0
        for trajectory in traffic.trajectories:
            start = perf_counter_ns()
            simplifier.run(trajectory)
            end = perf_counter_ns()
            tracer.span(f"batch.{algorithm}", start, end)
            total += end - start
        out[f"batch.{algorithm}_us_per_fix"] = total / 1e3 / traffic.n_fixes
    out["batch.operb_over_dp"] = out["batch.dp_us_per_fix"] / out["batch.operb_us_per_fix"]
    return out


def _wire_replays(traffic: Traffic, tracer: Tracer, shards: int) -> dict[str, float]:
    frame_name = POINT_BATCH_FORMATS["columnar"]
    encode_ns = decode_ns = 0
    for tick in traffic.ticks:
        records = [(shard_index(device, shards), device, point) for device, point in tick]
        start = perf_counter_ns()
        frame = encode_frame(frame_name, group_records(records))
        middle = perf_counter_ns()
        decode_frame(frame)
        end = perf_counter_ns()
        tracer.span("wire.encode", start, middle)
        tracer.span("wire.decode", middle, end)
        encode_ns += middle - start
        decode_ns += end - middle
    return {
        "wire.encode_us_per_fix": encode_ns / 1e3 / traffic.n_fixes,
        "wire.decode_us_per_fix": decode_ns / 1e3 / traffic.n_fixes,
    }


def _bare_fixes_per_s(traffic: Traffic, config: ServeConfig, tracer: Tracer) -> float:
    hub = open_hub(config)
    try:
        for device_id in traffic.device_ids:
            hub.register_device(device_id)
        start = perf_counter_ns()
        for tick in traffic.ticks:
            hub.push_many(tick)
        hub.finish_all()
        end = perf_counter_ns()
    finally:
        hub.close()
    tracer.span(f"hub.replay_{config.backend}", start, end)
    return traffic.n_fixes / ((end - start) / 1e9)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ms(spans) -> float:
    return _median(span.duration_ns / 1e6 for span in spans)


def _store_facts(phase: str, rounds: list[Round]) -> dict[str, float]:
    """Checkpoint, sink, store and query metrics of traced serve rounds;
    store sizes are those of the last round, whose store is still open."""
    last = rounds[-1]
    files = [p for p in last.store.root.rglob("*") if p.is_file()]
    tracer = last.tracer
    accepts = tracer.select(phase, "sink.accept")
    query_facts = [f for r in rounds for f in r.query_facts]
    aggregate_facts = [f for r in rounds for f in r.aggregate_facts]
    scanned = sum(f[0] for f in query_facts)
    total = sum(f[1] for f in query_facts)
    query_ns = sum(s.duration_ns for s in tracer.select(phase, "query.device"))
    pushdown = sum(f[0] for f in aggregate_facts)
    aggregate_total = sum(f[1] for f in aggregate_facts)
    n_queries = max(len(query_facts), 1)
    return {
        "checkpoint.snapshot_ms": _ms(tracer.select(phase, "checkpoint.snapshot")),
        "checkpoint.write_ms": _ms(tracer.select(phase, "checkpoint.write")),
        "checkpoint.bytes": _median(b for r in rounds for b in r.checkpoint_bytes),
        "sink.accept_us": _median(s.duration_ns / 1e3 for s in accepts),
        "store.append_ms": _ms(tracer.select(phase, "store.append")),
        "store.appends": last.appends,
        "store.segments_written": last.segments,
        "store.partitions": last.store.n_partitions,
        "store.files": len(files),
        "store.bytes_on_disk": sum(p.stat().st_size for p in files),
        "query.partitions_scanned": scanned / n_queries,
        "query.partitions_total": total / n_queries,
        "query.scan_fraction": scanned / total if total else 0.0,
        "query.segments_scanned": sum(f[2] for f in query_facts) / n_queries,
        "query.us_per_partition_scanned": query_ns / 1e3 / scanned if scanned else 0.0,
        "aggregate.pushdown_fraction": pushdown / aggregate_total if aggregate_total else 0.0,
    }


def layer_metrics(
    workload: str, rounds: list[Round], traffic: Traffic, workdir: Path, tracer: Tracer
) -> tuple[dict[str, float], list[Round]]:
    """Per-layer metrics of ``workload``: its own traced ``rounds`` (phase
    ``native``) plus layer replays of ``traffic``.  Returns the metrics and
    the replay serve rounds, whose stores are closed."""
    out: dict[str, float] = {}
    tracer.phase = "session"
    out.update(_session_replays(traffic, tracer))
    tracer.phase = "batch"
    out.update(_batch_replays(traffic, tracer))
    tracer.phase = "wire"
    out.update(_wire_replays(traffic, tracer, shards=4))

    own = SERVE_CONFIGS.get(workload)
    serve = {own.backend: ("native", rounds)} if own else {}
    replays = []
    for config in (SERIAL_SERVE, NODE_SERVE):
        if config.backend not in serve:
            tracer.phase = config.backend
            replay = serve_round(traffic, config, workdir / config.backend, tracer)
            serve[config.backend] = (config.backend, [replay])
            replays.append(replay)

    phase, serial = serve["serial"]
    push_self = tracer.self_ns(phase, "hub.push_many") / 1e3 / sum(r.fixes for r in serial)
    out["hub.push_self_us_per_fix"] = push_self
    out["hub.routing_us_per_fix"] = push_self - out["session.push_us_per_fix"]
    out["hub.finish_all_ms"] = _median(r.finish_all_ns / 1e6 for r in serial)

    phase, node = serve["node"]
    node_push_ns = sum(s.duration_ns for s in tracer.select(phase, "hub.push_many"))
    out["wire.bytes_per_fix"] = sum(r.bytes_shipped for r in node) / sum(r.fixes for r in node)
    out["wire.batches_shipped"] = _median(r.batches_shipped for r in node)
    out["exec.ask_after_tell_ms"] = _ms(tracer.select(phase, "exec.ask_after_tell"))
    out["exec.drain_ms"] = _median(r.finish_all_ns / 1e6 for r in node)
    out["exec.parent_busy_share"] = node_push_ns / sum(r.wall_ns for r in node)
    out["exec.start_s"] = _median(r.hub_start_ns / 1e9 for r in node)

    tracer.phase = "bare"
    out["exec.node_over_serial"] = _bare_fixes_per_s(
        traffic, NODE_SERVE, tracer
    ) / _bare_fixes_per_s(traffic, SERIAL_SERVE, tracer)

    out.update(_store_facts(*serve[own.backend if own else "serial"]))
    for replay in replays:
        replay.store.close()
    return out, replays
