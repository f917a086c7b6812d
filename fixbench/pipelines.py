"""The fix-to-query pipelines one benchmark round drives.

A *serve* round streams a :class:`~traffic.Traffic` tick by tick through a
``StreamHub`` whose finest-level segments land in a fresh segment store,
with a read mix (per-device recent-window queries plus one fleet-wide
window aggregate) and periodic checkpoints.  A *batch* round runs
``Simplifier.run`` over every trajectory, then checkpoints its progress,
persists the outputs and runs the same read mix.  Every call into the program is timed here, from
outside, and optionally recorded as a span.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter_ns

from repro import Simplifier, save_checkpoint
from repro.exceptions import ReproError
from repro.store import Store, open_store
from repro.streaming import StreamHub

from spans import Tracer
from traffic import EPSILON, Traffic

QUERIES_PER_READ = 4
"""Per-device recent-window queries in one read batch (plus one aggregate)."""

BATCH_ALGORITHMS = ("operb", "operb-a")


@dataclass(frozen=True)
class ServeConfig:
    """How a serve round drives the hub, the store and the reads.

    Cadences count fleet fixes delivered, so one config fits any traffic;
    :meth:`ticks` turns them into whole ticks of a given input.
    """

    backend: str
    block_size: int
    sink_buffer: int
    """Segments a device's StoreSink buffers before each ``Store.append``."""
    read_every: int
    """Fixes between read batches."""
    read_window: int
    """Fixes of traffic a device query looks back over: wide enough to
    reach segments the sinks have flushed, not just the ones still buffered."""
    live_reads: bool
    """Read during ingest (else replay the read schedule after it)."""
    checkpoint_every: int
    """Fixes between checkpoints."""

    def ticks(self, traffic: Traffic) -> tuple[int, int, int]:
        """``(read_every, read_window, checkpoint_every)`` in ticks of ``traffic``."""
        per_tick = traffic.fixes_per_tick
        return tuple(
            max(1, fixes // per_tick)
            for fixes in (self.read_every, self.read_window, self.checkpoint_every)
        )


SERIAL_SERVE = ServeConfig(
    backend="serial", block_size=512, sink_buffer=128, read_every=2_400,
    read_window=28_800, live_reads=True, checkpoint_every=7_200,
)
"""On taxi-serve traffic (24 fixes a tick): reads every 100 ticks over the
last 1,200, a checkpoint every 300."""
NODE_SERVE = ServeConfig(
    backend="node", block_size=4096, sink_buffer=16, read_every=8_192,
    read_window=16_384, live_reads=False, checkpoint_every=16_384,
)
"""On idle-node traffic (4,096 fixes a tick): reads every 2 ticks over the
last 4, a checkpoint every 4."""
SERVE_CONFIGS = {"taxi-serve": SERIAL_SERVE, "idle-node": NODE_SERVE}
BATCH_READ_EVERY = 50
BATCH_READ_WINDOW = 200
BATCH_CHECKPOINT_EVERY = 8
"""``Simplifier.run`` calls whose outputs one batch checkpoint records."""


@dataclass
class Round:
    """Everything one round measured."""

    traffic: Traffic
    tracer: Tracer
    tick_start_ns: list[int] = field(default_factory=list)
    push_ns: list[int] = field(default_factory=list)
    latency_ns: list[int] = field(default_factory=list)
    query_ns: list[int] = field(default_factory=list)
    checkpoint_ns: list[int] = field(default_factory=list)
    checkpoint_bytes: list[int] = field(default_factory=list)
    query_facts: list[tuple[int, int, int]] = field(default_factory=list)
    """(partitions scanned, partitions total, segments scanned) per device query."""
    aggregate_facts: list[tuple[int, int]] = field(default_factory=list)
    """(partitions pushed down, partitions total) per aggregate."""
    appends: int = 0
    fixes: int = 0
    segments: int = 0
    wall_ns: int = 0
    paused_ns: int = 0
    """Timed-phase time the client spent on live reads and checkpoint file
    writes; they have their own metrics, so ingest throughput leaves them out."""
    hub_start_ns: int = 0
    finish_all_ns: int = 0
    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    rss_mb: float = 0.0
    """:func:`peak_rss_mb` at the end of the round: the round's own peak
    only in a fresh process that made just this round's input first."""
    sink_failures: int = 0
    bytes_shipped: int = 0
    batches_shipped: int = 0
    store: Store | None = None
    outputs: dict[str, list] = field(default_factory=dict)
    """Batch rounds: device/algorithm -> segments ``Simplifier.run`` returned."""

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def fixes_per_s(self) -> float:
        return self.fixes / ((self.wall_ns - self.paused_ns) / 1e9)


class TimedSink:
    """Times one ``StoreSink`` from outside and dates each segment.

    A segment's latency runs from the start of the tick that delivered its
    last covered fix to the moment the hub hands it to this sink.  An
    accept whose inner sink wrote to the store is recorded as a
    ``store.append`` span, any other as ``sink.accept``.
    """

    __slots__ = ("inner", "round")

    def __init__(self, inner, round_: Round) -> None:
        self.inner = inner
        self.round = round_

    def accept(self, segment) -> None:
        round_ = self.round
        written = self.inner.segments_written
        start = perf_counter_ns()
        self.inner.accept(segment)
        end = perf_counter_ns()
        tick = segment.covered_last_index // round_.traffic.rounds_per_tick
        round_.latency_ns.append(start - round_.tick_start_ns[tick])
        self._record(written, start, end)

    def flush(self) -> None:
        self._timed(self.inner.flush)

    def close(self) -> None:
        self._timed(self.inner.close)

    def _timed(self, call) -> None:
        written = self.inner.segments_written
        start = perf_counter_ns()
        call()
        self._record(written, start, perf_counter_ns())

    def _record(self, written: int, start: int, end: int) -> None:
        if self.inner.segments_written != written:
            self.round.appends += 1
            self.round.tracer.span("store.append", start, end)
        else:
            self.round.tracer.span("sink.accept", start, end)


class _Snapshot:
    """Hands an already-taken snapshot to ``save_checkpoint``.

    ``save_checkpoint`` only calls ``hub.checkpoint()``; splitting the two
    lets the benchmark time the snapshot and the file write separately.
    """

    def __init__(self, payload: dict) -> None:
        self._payload = payload

    def checkpoint(self) -> dict:
        return self._payload


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    pids = [os.getpid()]
    for task in Path("/proc/self/task").iterdir():
        children = (task / "children").read_text().split()
        pids.extend(int(pid) for pid in children)
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except FileNotFoundError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def open_hub(config: ServeConfig, sink_factory=None) -> StreamHub:
    """The hub every serve round (and its set-up probe) drives."""
    return StreamHub(
        algorithm="operb",
        epsilon=EPSILON,
        sink_factory=sink_factory,
        backend=config.backend,
        workers=None if config.backend == "serial" else 1,
        block_size=config.block_size,
    )


def open_round_store(workdir: Path, traffic: Traffic) -> Store:
    path = workdir / "store"
    shutil.rmtree(path, ignore_errors=True)
    return open_store(path, time_bucket=traffic.time_bucket, writer=True)


def read_batch(
    store: Store,
    round_: Round,
    keys: list[tuple[str, object]],
    tick: int,
    read_every: int,
    read_window: int,
) -> None:
    """Recent-window queries for a few stored keys, then one fleet aggregate.

    ``keys`` pairs each stored device key with its trajectory.  A device
    query asks for the traffic time that device's last ``read_window``
    ticks delivered.  The aggregate totals the whole fleet up to now in one
    window, which the store can answer from zone maps for every partition
    the window covers.
    """
    traffic = round_.traffic
    tracer = round_.tracer
    fixes = read_window * traffic.rounds_per_tick
    last = (tick + 1) * traffic.rounds_per_tick - 1
    for j in range(QUERIES_PER_READ):
        key, trajectory = keys[(tick // read_every * QUERIES_PER_READ + j) % len(keys)]
        index = min(last, len(trajectory) - 1)
        window = (float(trajectory.ts[max(0, index - fixes)]), float(trajectory.ts[index]))
        start = perf_counter_ns()
        try:
            result = store.query(device=key, window=window)
        except ReproError:
            round_.failures["query_failed"] += 1
            continue
        end = perf_counter_ns()
        round_.query_ns.append(end - start)
        tracer.span("query.device", start, end)
        round_.query_facts.append(
            (result.partitions_scanned, result.partitions_total, result.segments_scanned)
        )
    low = traffic.time_range[0]
    t_now = traffic.tick_times[tick]
    start = perf_counter_ns()
    try:
        aggregate = store.window_aggregates(window=(low, t_now), width=t_now - low)
    except ReproError:
        round_.failures["query_failed"] += 1
        return
    end = perf_counter_ns()
    round_.query_ns.append(end - start)
    tracer.span("aggregate.window", start, end)
    round_.aggregate_facts.append(
        (aggregate.partitions_pushdown, aggregate.partitions_total)
    )


def _checkpoint(take_snapshot, workdir: Path, round_: Round) -> int:
    """Time one snapshot and its ``save_checkpoint`` write; returns the
    nanoseconds from the write to the removal of the previous checkpoint
    (0 when the checkpoint failed).

    Checkpoints rotate: each goes to a new file, and the previous one is
    removed only after the timed write.  Replacing one file instead makes
    ext4 start writing the replacement out inside ``save_checkpoint``
    (its replace-via-rename rule), a disk cost that swung the write time
    between runs.
    """
    count = len(round_.checkpoint_ns)
    path = workdir / f"checkpoint-{count}.json"
    start = perf_counter_ns()
    try:
        payload = take_snapshot()
        middle = perf_counter_ns()
        save_checkpoint(_Snapshot(payload), path)
    except ReproError:
        round_.failures["checkpoint_failed"] += 1
        return 0
    end = perf_counter_ns()
    (workdir / f"checkpoint-{count - 1}.json").unlink(missing_ok=True)
    round_.checkpoint_ns.append(end - start)
    round_.checkpoint_bytes.append(path.stat().st_size)
    round_.tracer.span("checkpoint.snapshot", start, middle)
    round_.tracer.span("checkpoint.write", middle, end)
    return perf_counter_ns() - middle


def _read_schedule(traffic: Traffic, read_every: int) -> range:
    return range(read_every - 1, len(traffic.ticks), read_every)


def serve_round(traffic: Traffic, config: ServeConfig, workdir: Path, tracer: Tracer) -> Round:
    """Stream ``traffic`` through a hub into a fresh store.

    The timed phase runs from the first tick to the close of the last sink,
    so every segment is in the store when it ends.  ``fixes_per_s`` counts
    it without the live reads and checkpoint file writes (snapshots stay
    in: on the node backend they wait for the worker to catch up).  A
    traced round also times a ``hub.stats()`` ask just before each
    checkpoint: the first synchronising call after a run of pushes.
    """
    read_every, read_window, checkpoint_every = config.ticks(traffic)
    round_ = Round(traffic, tracer)
    round_.failures = dict.fromkeys(
        ("hub_errors", "dropped_points", "query_failed", "checkpoint_failed"), 0
    )
    store = open_round_store(workdir, traffic)
    factory = store.sink_factory(epsilon=EPSILON, buffer_size=config.sink_buffer)
    sinks: list[TimedSink] = []

    def timed_factory(device_id: str) -> TimedSink:
        sink = TimedSink(factory(device_id), round_)
        sinks.append(sink)
        return sink

    keys = list(zip(traffic.device_ids, traffic.trajectories))
    reads = set(_read_schedule(traffic, read_every))
    start = perf_counter_ns()
    hub = open_hub(config, timed_factory)
    try:
        for device_id in traffic.device_ids:
            hub.register_device(device_id)
        ready = perf_counter_ns()
        tracer.span("exec.start", start, ready)
        round_.hub_start_ns = ready - start

        begin = perf_counter_ns()
        for tick, records in enumerate(traffic.ticks):
            tick_start = perf_counter_ns()
            round_.tick_start_ns.append(tick_start)
            hub.push_many(records)
            tick_end = perf_counter_ns()
            round_.push_ns.append(tick_end - tick_start)
            tracer.span("hub.push_many", tick_start, tick_end)
            if config.live_reads and tick in reads:
                read_batch(store, round_, keys, tick, read_every, read_window)
                round_.paused_ns += perf_counter_ns() - tick_end
            if (tick + 1) % checkpoint_every == 0:
                if tracer.enabled:
                    ask_start = perf_counter_ns()
                    hub.stats()
                    tracer.span("exec.ask_after_tell", ask_start, perf_counter_ns())
                round_.paused_ns += _checkpoint(hub.checkpoint, workdir, round_)
        finish_start = perf_counter_ns()
        hub.finish_all()
        finish_end = perf_counter_ns()
        tracer.span("hub.finish_all", finish_start, finish_end)
        round_.finish_all_ns = finish_end - finish_start
        for sink in sinks:
            sink.close()
        round_.wall_ns = perf_counter_ns() - begin

        stats = hub.stats()
        round_.rss_mb = peak_rss_mb()
    finally:
        hub.close()
    round_.fixes = stats.points_pushed
    round_.segments = store.n_segments
    round_.bytes_shipped = stats.bytes_shipped
    round_.batches_shipped = stats.batches_shipped
    round_.sink_failures = stats.sink_failures
    round_.failures["hub_errors"] = len(hub.errors)
    round_.failures["dropped_points"] = stats.dropped_points
    if not config.live_reads:
        for tick in sorted(reads):
            read_batch(store, round_, keys, tick, read_every, read_window)
    round_.attempted = (
        traffic.n_fixes
        + len(reads) * (QUERIES_PER_READ + 1)
        + len(traffic.ticks) // checkpoint_every
    )
    round_.store = store
    return round_


def _progress_record(outputs: dict[str, list], keys: list[str]) -> dict:
    return {
        "format": 1,
        "kind": "batch-progress",
        "outputs": {key: [segment.to_dict() for segment in outputs[key]] for key in keys},
    }


def batch_round(traffic: Traffic, workdir: Path, tracer: Tracer) -> Round:
    """``Simplifier.run`` over every trajectory, then persist and read.

    Only the simplification is timed for ``fixes_per_s``.  A call's
    latency is also the latency of each segment it returns (all its fixes
    were handed over when the call started).  The batch job has no stream
    state, so its checkpoint is a progress record -- the outputs of the last
    :data:`BATCH_CHECKPOINT_EVERY` calls -- written with ``save_checkpoint``.
    The outputs then go to a store for the read mix.
    """
    round_ = Round(traffic, tracer)
    round_.failures = dict.fromkeys(("query_failed", "checkpoint_failed"), 0)
    simplifiers = [Simplifier(name, EPSILON) for name in BATCH_ALGORITHMS]
    keys = []
    begin = perf_counter_ns()
    for device_id, trajectory in zip(traffic.device_ids, traffic.trajectories):
        for simplifier in simplifiers:
            start = perf_counter_ns()
            segments = simplifier.run(trajectory).segments
            end = perf_counter_ns()
            round_.push_ns.append(end - start)
            round_.latency_ns.extend([end - start] * len(segments))
            tracer.span(f"batch.{simplifier.algorithm}", start, end)
            key = f"{device_id}/{simplifier.algorithm}"
            round_.outputs[key] = segments
            keys.append((key, trajectory))
    round_.wall_ns = perf_counter_ns() - begin
    round_.fixes = traffic.n_fixes * len(simplifiers)

    for first in range(0, len(keys), BATCH_CHECKPOINT_EVERY):
        done = [key for key, _ in keys[first : first + BATCH_CHECKPOINT_EVERY]]
        _checkpoint(partial(_progress_record, round_.outputs, done), workdir, round_)
    store = open_round_store(workdir, traffic)
    for key, segments in round_.outputs.items():
        start = perf_counter_ns()
        store.append(key, segments, epsilon=EPSILON)
        tracer.span("store.append", start, perf_counter_ns())
        round_.appends += 1
    round_.rss_mb = peak_rss_mb()
    round_.segments = store.n_segments
    reads = _read_schedule(traffic, BATCH_READ_EVERY)
    for tick in reads:
        read_batch(store, round_, keys, tick, BATCH_READ_EVERY, BATCH_READ_WINDOW)
    round_.attempted = (
        round_.fixes
        + len(range(0, len(keys), BATCH_CHECKPOINT_EVERY))
        + len(reads) * (QUERIES_PER_READ + 1)
    )
    round_.store = store
    return round_
