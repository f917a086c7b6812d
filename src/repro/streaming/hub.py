"""Multi-device streaming hub: thousands of concurrent GPS streams, any backend.

The paper's one-pass algorithms are designed to run at the *edge* — one
simplifier per device, O(1) state each — but a trajectory store ingests the
other end of that pipe: a single service terminating many device streams at
once.  :class:`StreamHub` is that ingest surface.  Devices are hash-sharded
across :class:`HubShard` partitions (a deterministic CRC32 shard map, so a
checkpoint restores onto the same layout), each shard owning a dict of
``device_id -> DeviceStream``; every device stream wraps one
:class:`repro.api.StreamSession` opened with ``keep_segments=False`` so hub
memory stays O(devices), not O(points).

Shards execute on a pluggable :mod:`repro.exec` backend (``backend=``):
``"serial"`` keeps every shard inline in the caller (the reference
semantics), while ``"thread"``, ``"process"`` and ``"node"`` drive the
shards on real worker actors — per-shard FIFO mailboxes, single-owner shard
state (no locks in the ingest path), segments and failures streamed back to
the hub as events.  On the backends whose batches cross a serialization
boundary (the process and node backends' sockets) the shipped unit is a
*columnar wire frame* (:mod:`repro.streaming.wire`): per-device
little-endian ``float64`` columns instead of pickled point tuples, decoded
straight into the SoA blocks the vectorized ingest path consumes.  All
backends are contractually equivalent: the same device log produces
byte-identical per-device segments and byte-identical checkpoints, a
property the test suite locks in.

Every fix reaches its device stream through one shard-core routine.  The
serial backend feeds it record by record, in arrival order; concurrent
backends group each ``block_size``-record buffer per device once
(:func:`~repro.streaming.wire.group_points`) and ship the groups, a single
``push`` as a one-record batch.  A multi-fix group runs the vectorized
prefix kernels of :mod:`repro.geometry.kernels` instead of per-point
Python; the group boundary is invisible downstream (byte-identical
per-device segments, statistics and checkpoints).

Capabilities:

- **per-device configuration** — each device may use its own algorithm,
  epsilon and options (defaults come from the hub);
- **segment routing** — finalised segments are handed to a per-device sink
  (``sink_factory``) or a shared sink the moment they are emitted; sinks
  are :class:`repro.streaming.sinks.SegmentSink` protocol instances
  (``accept(segment)`` required, ``flush()``/``close()`` optional) and
  always live in the hub's process, whatever the backend.  The hub owns
  the sink lifecycle: attached sinks are flushed and closed exactly once
  on :meth:`StreamHub.close` / ``__exit__``, and a raising sink is
  detached and counted in :attr:`HubStats.sink_failures` instead of
  crashing the ingest;
- **backpressure accounting** — per-device and hub-wide lag statistics (how
  many points are pending in the open segment) expose the latency cost of
  buffering algorithms next to the one-pass ones;
- **error isolation** — a device stream that raises is quarantined and
  recorded as a :class:`DeviceError`, mirroring the fleet executor's
  per-trajectory isolation, instead of sinking the hub (or its sibling
  shards).  Fixes for a quarantined or finished device count as dropped
  (``"raise"`` mode refuses them); a finished device stays finished;
- **checkpoint/restore** — :meth:`StreamHub.checkpoint` barriers every
  shard, then serialises every live stream via the simplifiers'
  ``snapshot()`` protocol into one JSON-serialisable payload;
  :meth:`StreamHub.from_checkpoint` resumes with byte-identical downstream
  segments — on any backend, and optionally onto a *different* shard count
  (devices re-shard through the same CRC32 map).

Concurrency caveats (``thread``/``process``/``node`` backends only): ``push`` routes
asynchronously and returns ``[]`` (segments still reach the sinks);
``on_error="raise"`` surfaces a device failure at the next hub call instead
of mid-push (``push_many`` drains its own batches so its failures surface
on return; ``checkpoint()`` alone never raises for device failures, so a
failed hub can always be checkpointed); counters (``points_pushed``,
``segments_emitted``) are authoritative after a synchronising call
(``stats()``, ``checkpoint()``, ``finish_all()``).  Under the process and
node backends, per-device stream objects live in worker processes and are
not addressable — use ``stats()`` and ``checkpoint()``.
"""

from __future__ import annotations

import traceback as _traceback
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from ..api.session import Simplifier, StreamSession
from ..exceptions import (
    CheckpointError,
    ExecutionError,
    InvalidParameterError,
    ReproError,
    SimplificationError,
)
from ..exec import ExecutionBackend, resolve_backend
from ..geometry.point import Point
from ..trajectory.piecewise import SegmentRecord
from ..trajectory.soa import PointBlock
from .pyramid import PyramidSession, validate_epsilon_ladder
from .sinks import SegmentSink, close_sink, flush_sink
from .wire import POINT_BATCH_FRAME, decode_frame, encode_frame, group_points, group_records

__all__ = [
    "DeviceError",
    "DeviceStream",
    "HubShard",
    "HubStats",
    "StreamHub",
    "shard_index",
]

_ON_ERROR_MODES = ("collect", "raise")

CHECKPOINT_KIND = "stream-hub"
"""Payload discriminator stamped into every hub checkpoint."""

CHECKPOINT_FORMAT = 1
"""Version stamp of the checkpoint layout, bumped on incompatible changes."""

PYRAMID_CHECKPOINT_FORMAT = 2
"""Checkpoint layout of pyramid hubs (``epsilons=[...]``): format 1 plus an
``"epsilons"`` ladder in the hub section, per-device ``"segments_by_level"``
stats and a pyramid snapshot as each live device's ``"session"``.
Single-epsilon hubs keep stamping format 1 byte-identically, and
:meth:`StreamHub.from_checkpoint` reads both."""

DEFAULT_BLOCK_SIZE = 512
"""Default records a concurrent shard worker buffers before ``push_many``
ships a batch (the serial backend ingests record by record).

Each batch is grouped per device, so this also bounds the block sizes the
vectorized ingest kernels see.  Larger values amortise more per-record
overhead at the cost of ingest latency; tune via
``StreamHub(block_size=...)`` / ``serve-replay --block-size``.
"""


def shard_index(device_id: str, n_shards: int) -> int:
    """Deterministic shard of ``device_id`` (CRC32, stable across processes).

    Python's builtin ``hash`` is salted per process, which would scatter a
    restored hub's devices onto different shards than the checkpointing one;
    CRC32 keeps the layout reproducible.  Every device id enters the hub
    through here, so a non-``str`` id is rejected here, before it changes
    any state, on every backend.
    """
    if not isinstance(device_id, str):
        raise InvalidParameterError(
            f"device ids must be str, got {type(device_id).__name__} {device_id!r}"
        )
    return zlib.crc32(device_id.encode("utf-8")) % n_shards


@dataclass(frozen=True, slots=True)
class DeviceError:
    """One device stream that failed mid-ingest (mirrors ``FleetError``).

    ``exception`` carries the original exception object when the failure
    happened in the hub's process (serial and thread backends); failures
    crossing a process boundary are described by ``error_type``/``message``.
    ``traceback`` preserves the originally formatted traceback on every
    backend (it crosses process boundaries as a plain string); it is
    diagnostic only and never enters checkpoints — formatted frames differ
    between backends, and checkpoints are byte-identical across them.
    """

    device_id: str
    error_type: str
    message: str
    exception: BaseException | None = None
    traceback: str | None = None

    def __str__(self) -> str:
        return f"device {self.device_id}: {self.error_type}: {self.message}"


@dataclass(slots=True)
class HubStats:
    """Aggregate counters of a hub (see :meth:`StreamHub.stats`)."""

    devices: int
    active: int
    finished: int
    failed: int
    points_pushed: int
    segments_emitted: int
    dropped_points: int
    max_lag: int
    max_segments_per_push: int
    shard_devices: list[int]
    shard_points: list[int]
    sink_failures: int = 0
    """Sinks detached after raising (segments stopped reaching them)."""
    batches_shipped: int = 0
    """Batches handed to shard workers, a single ``push`` counting as one
    (0 on the serial backend, which routes record by record)."""
    bytes_shipped: int = 0
    """Encoded wire-frame bytes shipped to shard workers.  Non-zero only on
    backends that cross a serialization boundary (process, node); the
    thread backend shares memory and ships object references."""
    frames_decoded: int = 0
    """Wire frames decoded by the shard workers (process/node backends),
    one per shipped batch, single pushes included."""
    epsilons: list[float] | None = None
    """The hub's pyramid ladder, finest first (``None`` on single-epsilon hubs)."""
    segments_by_level: list[int] | None = None
    """Segments emitted per pyramid level, finest first (``None`` when single)."""

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (for the CLI and reports)."""
        out: dict[str, object] = {
            "devices": self.devices,
            "active": self.active,
            "finished": self.finished,
            "failed": self.failed,
            "points_pushed": self.points_pushed,
            "segments_emitted": self.segments_emitted,
            "dropped_points": self.dropped_points,
            "max_lag": self.max_lag,
            "max_segments_per_push": self.max_segments_per_push,
            "shard_devices": list(self.shard_devices),
            "shard_points": list(self.shard_points),
            "sink_failures": self.sink_failures,
            "batches_shipped": self.batches_shipped,
            "bytes_shipped": self.bytes_shipped,
            "frames_decoded": self.frames_decoded,
        }
        if self.epsilons is not None:
            out["epsilons"] = list(self.epsilons)
        if self.segments_by_level is not None:
            out["segments_by_level"] = list(self.segments_by_level)
        return out


class DeviceStream:
    """One device's open stream inside the hub.

    Wraps a :class:`~repro.api.StreamSession` (``keep_segments=False`` — the
    sinks own the segments) together with the per-device lag/backpressure
    counters.  Segment routing happens in the owning shard worker, which
    emits every finalised batch back to the hub; the stream itself holds no
    sink reference.  Not constructed directly; use
    :meth:`StreamHub.register_device` / :meth:`StreamHub.push`.
    """

    def __init__(
        self,
        device_id: str,
        simplifier: Simplifier,
        epsilons: tuple[float, ...] | None = None,
    ) -> None:
        self.device_id = device_id
        self.simplifier = simplifier
        self.session: StreamSession | PyramidSession
        if epsilons is None:
            self.session = simplifier.open_stream(keep_segments=False)
            self.pyramid = False
            self.level_segments: list[int] = []
        else:
            self.session = PyramidSession(simplifier, epsilons)
            self.pyramid = True
            self.level_segments = [0] * (len(epsilons) - 1)
        self.points_pushed = 0
        self.segments_emitted = 0
        self.max_segments_per_push = 0
        self.lag = 0
        """Points pushed since the last emitted segment (open-segment backlog)."""
        self.max_lag = 0
        self.dropped_points = 0
        self.error: DeviceError | None = None

    @property
    def algorithm(self) -> str:
        """Name of the algorithm compressing this device's stream."""
        return self.simplifier.algorithm

    @property
    def failed(self) -> bool:
        """Whether this device stream has been quarantined after an error."""
        return self.error is not None

    @property
    def finished(self) -> bool:
        """Whether this device stream has been flushed."""
        return self.session.finished

    def _account(self, emitted: list[SegmentRecord]) -> None:
        """Fold emitted segments into the per-device statistics."""
        count = len(emitted)
        self.segments_emitted += count
        if count > self.max_segments_per_push:
            self.max_segments_per_push = count
        if count:
            self.lag = 0

    def ingest(
        self, fixes: Sequence[Point] | PointBlock, emitted: list[SegmentRecord]
    ) -> None:
        """Feed one group of fixes, appending the segments it finalised.

        A one-fix group takes the session's scalar ``push``, a longer one
        its traced ``iter_block``.  The counters advance step by step as
        under per-point pushes (so checkpoints are byte-identical whatever
        the grouping), and when the stream raises mid-group the consumed
        prefix is already counted and in ``emitted``.
        """
        if len(fixes) == 1:
            self._advance(1, self.session.push(fixes[0]), emitted)
            return
        block = fixes if isinstance(fixes, PointBlock) else PointBlock.from_points(fixes)
        for count, segments in self.session.iter_block(block):
            self._advance(count, segments, emitted)

    def _advance(
        self, count: int, segments: list[SegmentRecord], emitted: list[SegmentRecord]
    ) -> None:
        """Account one traced step: ``count`` pushes, the last of which
        finalised ``segments``."""
        self.points_pushed += count
        self.lag += count
        if self.lag > self.max_lag:
            self.max_lag = self.lag
        if segments:
            self._account(segments)
            emitted.extend(segments)

    def finish(self) -> list[SegmentRecord]:
        """Flush the stream; returns the trailing segments."""
        emitted = self.session.finish()
        self._account(emitted)
        self.lag = 0
        return emitted

    def drain_levels(self) -> list[tuple[int, list[SegmentRecord]]]:
        """Pop coarse-level segments cascaded since the last drain.

        Only meaningful on pyramid streams; folds the drained counts into
        :attr:`level_segments` so per-level statistics stay authoritative.
        """
        drained = self.session.drain_levels()  # type: ignore[union-attr]
        for level, segments in drained:
            self.level_segments[level - 1] += len(segments)
        return drained

    def stats_dict(self) -> dict[str, object]:
        """The per-device counters as a plain dict (checkpointed verbatim).

        ``segments_by_level`` (finest first; index 0 repeats
        ``segments_emitted``) appears only on pyramid streams, so
        single-epsilon checkpoints stay byte-identical to format 1.
        """
        stats: dict[str, object] = {
            "points_pushed": self.points_pushed,
            "segments_emitted": self.segments_emitted,
            "max_segments_per_push": self.max_segments_per_push,
            "lag": self.lag,
            "max_lag": self.max_lag,
            "dropped_points": self.dropped_points,
        }
        if self.pyramid:
            stats["segments_by_level"] = [self.segments_emitted, *self.level_segments]
        return stats

    def _load_stats(self, stats: dict) -> None:
        self.points_pushed = int(stats["points_pushed"])
        self.segments_emitted = int(stats["segments_emitted"])
        self.max_segments_per_push = int(stats["max_segments_per_push"])
        self.lag = int(stats["lag"])
        self.max_lag = int(stats["max_lag"])
        self.dropped_points = int(stats["dropped_points"])
        by_level = stats.get("segments_by_level")
        if by_level is not None and self.pyramid:
            self.level_segments = [int(count) for count in by_level[1:]]


class HubShard:
    """One hub partition: a slice of the hub's devices plus shard counters.

    A shard is owned by exactly one shard worker (a :mod:`repro.exec`
    actor); between barriers, only that worker touches the shard's state —
    which is what lets the thread and process backends run shards
    concurrently without locks in the ingest path.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.devices: dict[str, DeviceStream] = {}
        self.points_pushed = 0

    def __len__(self) -> int:
        return len(self.devices)


@dataclass(frozen=True, slots=True)
class _HubConfig:
    """Picklable shard-worker configuration (crosses process boundaries)."""

    algorithm: str
    epsilon: float
    options: dict
    on_error: str
    carry_exceptions: bool
    """Whether device-error events may carry the original exception object
    (true for in-process backends; exceptions do not reliably pickle)."""
    epsilons: tuple[float, ...] | None = None
    """Pyramid ladder (finest first); ``None`` runs single-epsilon streams."""


class _ShardCore:
    """Owns a slice of the hub's shards; runs wherever the backend puts it.

    This is the single implementation of shard semantics for every
    backend: the serial hub calls it inline (through a
    :class:`~repro.exec.SerialActorGroup`), the concurrent hubs run one
    core per worker actor.  The core never raises for *device* failures —
    those are quarantined and emitted as ``("device_error", ...)`` events,
    so one bad stream cannot crash its worker or poison sibling shards.
    """

    def __init__(
        self,
        config: _HubConfig,
        shard_indices: tuple[int, ...],
        emit: Callable[[object], None],
    ) -> None:
        self._config = config
        self._emit = emit
        self._default = Simplifier(
            config.algorithm, config.epsilon, **dict(config.options)
        )
        self.shards: dict[int, HubShard] = {
            index: HubShard(index) for index in shard_indices
        }
        self.frames_decoded = 0
        """Columnar wire frames this core decoded (``push_frame`` path)."""

    # ------------------------------------------------------------------ #
    # Message dispatch (the actor mailbox entry point)
    # ------------------------------------------------------------------ #
    def handle(self, message: tuple):
        kind = message[0]
        if kind == "push_groups":
            return self.push_groups(message[1])
        if kind == "push_frame":
            return self.push_frame(message[1])
        if kind == "register":
            return self.register(*message[1:])
        if kind == "finish_device":
            return self.finish_device(*message[1:])
        if kind == "finish_all":
            return self.finish_all()
        if kind == "checkpoint":
            return self.checkpoint_entries()
        if kind == "stats":
            return self.stats()
        if kind == "restore":
            return self.restore(*message[1:])
        if kind == "load_shard_points":
            return self.load_shard_points(message[1])
        raise SimplificationError(f"unknown hub shard message {kind!r}")

    # ------------------------------------------------------------------ #
    # Shard semantics
    # ------------------------------------------------------------------ #
    def register(
        self,
        shard_i: int,
        device_id: str,
        algorithm: str | None,
        epsilon: float | None,
        opts: dict,
    ) -> None:
        shard = self.shards[shard_i]
        if device_id in shard.devices:
            raise InvalidParameterError(
                f"device {device_id!r} is already registered with this hub"
            )
        if algorithm is None and epsilon is None and not opts:
            simplifier = self._default
        else:
            # Same algorithm: per-device opts overlay the hub defaults.  A
            # different algorithm starts from a clean slate (the defaults may
            # not even be valid options for it).
            effective_opts = (
                {**self._default.opts, **opts} if algorithm is None else dict(opts)
            )
            simplifier = Simplifier(
                algorithm if algorithm is not None else self._default.algorithm,
                epsilon if epsilon is not None else self._default.epsilon,
                **effective_opts,
            )
        shard.devices[device_id] = DeviceStream(
            device_id, simplifier, epsilons=self._config.epsilons
        )
        return None

    def _emit_levels(self, device: DeviceStream) -> None:
        """Ship coarse pyramid segments cascaded by the last device call."""
        for level, segments in device.drain_levels():
            self._emit(("level_segments", device.device_id, level, segments))

    def _record_failure(self, device: DeviceStream, error: Exception) -> None:
        formatted = "".join(
            _traceback.format_exception(type(error), error, error.__traceback__)
        )
        device.error = DeviceError(
            device_id=device.device_id,
            error_type=type(error).__name__,
            message=str(error),
            exception=error,
            traceback=formatted,
        )
        # The exception object only survives in-process transport; the
        # formatted traceback is a plain string and survives every backend.
        carried = error if self._config.carry_exceptions else None
        self._emit(
            (
                "device_error",
                device.device_id,
                type(error).__name__,
                str(error),
                carried,
                formatted,
            )
        )

    def _ingest(
        self, shard_i: int, device_id: str, fixes: Sequence[Point] | PointBlock
    ) -> tuple[list[SegmentRecord], int]:
        """Route one device's group of fixes: the one way a fix reaches a stream.

        Returns ``(emitted segments, fixes counted as pushed)``.  A
        quarantined or finished device drops the group, so consumed ==
        points_pushed + dropped holds (what replay resumption uses).  A
        stream that raises mid-group keeps its consumed prefix, is
        quarantined and drops the rest of the group — in ``"raise"`` mode
        all but the failing fix — exactly as per-fix routing would.
        """
        shard = self.shards[shard_i]
        device = shard.devices.get(device_id)
        if device is None:
            # The hub registers every device (and its parent-side sink)
            # before dispatching points; registering here instead would
            # desync the parent's device set and silently drop segments.
            raise SimplificationError(
                f"device {device_id!r} reached shard {shard_i} without "
                f"registration — hub/worker device sets are out of sync"
            )
        if device.error is not None:
            device.dropped_points += len(fixes)
            return [], 0
        emitted: list[SegmentRecord] = []
        before = device.points_pushed
        failure: Exception | None = None
        try:
            device.ingest(fixes, emitted)
        except Exception as error:  # noqa: BLE001 — isolation is the contract
            if device.finished:
                # A finished session refuses every fix before touching any
                # state; that refusal is a drop, not a stream failure.
                device.dropped_points += len(fixes)
                return [], 0
            failure = error
        consumed = device.points_pushed - before
        shard.points_pushed += consumed
        if emitted:
            self._emit(("segments", device_id, emitted))
            if device.pyramid:
                self._emit_levels(device)
        if failure is not None:
            self._record_failure(device, failure)
            dropped = len(fixes) - consumed
            device.dropped_points += (
                dropped if self._config.on_error == "collect" else dropped - 1
            )
        return emitted, consumed

    def push_groups(
        self, groups: Iterable[tuple[int, str, Sequence[Point] | PointBlock]]
    ) -> None:
        """Ingest one shipped batch of per-device groups (see ``group_points``).

        Within-device arrival order is all the simplifier state depends on;
        only the cross-device order of sink deliveries differs from per-fix
        routing, which the hub has never guaranteed across backends.
        """
        for shard_i, device_id, fixes in groups:
            self._ingest(shard_i, device_id, fixes)
        return None

    def push_frame(self, body: bytes) -> None:
        """Ingest one encoded point-batch wire frame (see :mod:`.wire`)."""
        name, groups = decode_frame(body)
        if name != POINT_BATCH_FRAME:
            raise SimplificationError(
                f"shard worker received a {name!r} frame on the ingest path"
            )
        self.frames_decoded += 1
        return self.push_groups(groups)

    def finish_device(self, shard_i: int, device_id: str) -> list[SegmentRecord]:
        shard = self.shards[shard_i]
        device = shard.devices.get(device_id)
        if device is None:
            raise InvalidParameterError(
                f"device {device_id!r} is not registered with this hub"
            )
        if device.finished or device.error is not None:
            return []
        try:
            emitted = device.finish()
        except Exception as error:  # noqa: BLE001 — isolation is the contract
            self._record_failure(device, error)
            return []
        if emitted:
            self._emit(("segments", device_id, emitted))
        if device.pyramid:
            # The cascade flush can finalise coarse tails even when the
            # finest level emitted nothing, so drain unconditionally.
            self._emit_levels(device)
        return emitted

    def finish_all(self) -> list[tuple[int, list[tuple[str, list[SegmentRecord]]]]]:
        out = []
        for shard_i in sorted(self.shards):
            flushed = [
                (device_id, self.finish_device(shard_i, device_id))
                for device_id in list(self.shards[shard_i].devices)
            ]
            out.append((shard_i, flushed))
        return out

    def checkpoint_entries(self) -> list[tuple[int, list[dict], int]]:
        out = []
        for shard_i in sorted(self.shards):
            shard = self.shards[shard_i]
            entries: list[dict] = []
            for device in shard.devices.values():
                entry: dict[str, object] = {
                    "device_id": device.device_id,
                    "algorithm": device.simplifier.algorithm,
                    "epsilon": device.simplifier.epsilon,
                    "options": dict(device.simplifier.opts),
                    "stats": device.stats_dict(),
                    "finished": device.finished,
                    "failed": None
                    if device.error is None
                    else {
                        "error_type": device.error.error_type,
                        "message": device.error.message,
                    },
                    "session": None,
                }
                if not device.finished and device.error is None:
                    try:
                        entry["session"] = device.session.snapshot()
                    except Exception as error:
                        raise CheckpointError(
                            f"cannot checkpoint device {device.device_id!r} "
                            f"({device.simplifier.algorithm!r}): {error}"
                        ) from error
                entries.append(entry)
            out.append((shard_i, entries, shard.points_pushed))
        return out

    def stats(self) -> dict:
        active = finished = failed = 0
        devices = dropped = segments = points = 0
        max_lag = max_burst = 0
        shard_rows = []
        level_counts: list[int] | None = None
        if self._config.epsilons is not None:
            level_counts = [0] * (len(self._config.epsilons) - 1)
        for shard_i in sorted(self.shards):
            shard = self.shards[shard_i]
            shard_rows.append((shard_i, len(shard.devices), shard.points_pushed))
            points += shard.points_pushed
            for device in shard.devices.values():
                devices += 1
                segments += device.segments_emitted
                if device.error is not None:
                    failed += 1
                elif device.finished:
                    finished += 1
                else:
                    active += 1
                dropped += device.dropped_points
                if device.max_lag > max_lag:
                    max_lag = device.max_lag
                if device.max_segments_per_push > max_burst:
                    max_burst = device.max_segments_per_push
                if level_counts is not None and device.pyramid:
                    for i, count in enumerate(device.level_segments):
                        level_counts[i] += count
        return {
            "shards": shard_rows,
            "devices": devices,
            "active": active,
            "finished": finished,
            "failed": failed,
            "dropped": dropped,
            "max_lag": max_lag,
            "max_burst": max_burst,
            "points_pushed": points,
            "segments_emitted": segments,
            "level_segments": level_counts,
            "frames_decoded": self.frames_decoded,
        }

    def restore(self, shard_i: int, entry: dict) -> None:
        self.register(
            shard_i,
            entry["device_id"],
            entry["algorithm"],
            entry["epsilon"],
            dict(entry.get("options", {})),
        )
        device = self.shards[shard_i].devices[entry["device_id"]]
        device._load_stats(entry["stats"])
        session_state = entry.get("session")
        if session_state is not None:
            if device.pyramid:
                # The fresh PyramidSession restores in place (base session
                # plus every cascade level and its priming state).
                device.session.restore(session_state)  # type: ignore[union-attr]
            else:
                device.session = device.simplifier.restore_stream(session_state)
        elif entry.get("finished"):
            # Consume the fresh session so the device reads finished.
            device.session.finish()
        failure = entry.get("failed")
        if failure is not None:
            device.error = DeviceError(
                device_id=entry["device_id"],
                error_type=failure["error_type"],
                message=failure["message"],
            )
        return None

    def load_shard_points(self, mapping: dict) -> None:
        for shard_i, points in mapping.items():
            self.shards[int(shard_i)].points_pushed = int(points)
        return None


class StreamHub:
    """Multiplex many concurrent device streams over the unified API.

    Parameters
    ----------
    algorithm, epsilon:
        Default algorithm and error bound for devices registered without an
        explicit override (``epsilon`` is required when the default algorithm
        is error bounded, exactly as for :class:`~repro.api.Simplifier`).
    epsilons:
        Optional strictly ascending error-bound ladder (finest first).  With
        two or more levels the hub runs an *epsilon pyramid*: every device
        wraps a :class:`~repro.streaming.PyramidSession` that simplifies the
        raw stream once at ``epsilons[0]`` and cascades the emitted segments
        into ``len(epsilons) - 1`` coarser simplifiers in the same pass.
        The finest level is byte-identical to a single-epsilon hub run at
        ``epsilons[0]`` (segments, statistics, snapshots); coarse levels add
        only O(segments) work.  Mutually exclusive with a conflicting
        ``epsilon`` (``epsilons[0]`` *is* the hub epsilon); a one-element
        ladder is exactly ``epsilon=epsilons[0]``.  Pyramid hubs checkpoint
        as format :data:`PYRAMID_CHECKPOINT_FORMAT` and refuse per-device
        overrides (the ladder is hub-wide).
    options:
        Default algorithm options for implicitly registered devices.
    shards:
        Number of partitions devices are hash-sharded across.
    sink_factory:
        Optional ``device_id -> sink`` callable; each registered device gets
        its own :class:`~repro.streaming.sinks.SegmentSink` (the protocol is
        checked on every sink the factory returns).  The hub owns the
        returned sinks: they are flushed and closed on :meth:`close` /
        ``__exit__``.
    shared_sink:
        Optional single :class:`~repro.streaming.sinks.SegmentSink`
        receiving every device's segments.  Mutually exclusive with
        ``sink_factory``; closed exactly once by the hub.
    level_sink_factory:
        Optional ``(device_id, level) -> sink`` callable for pyramid hubs:
        coarse levels ``1..len(epsilons)-1`` route their segments to these
        sinks (the finest level keeps using ``sink_factory`` /
        ``shared_sink``).  Owned by the hub like every other sink; requires
        a multi-level ``epsilons`` ladder.
    on_error:
        ``"collect"`` (default) quarantines a failing device stream and keeps
        the hub running; ``"raise"`` re-raises — immediately on the serial
        backend, at the next hub call on concurrent ones.  Either way the
        failure is recorded in :attr:`errors`.
    backend:
        Execution backend for the shards: ``"serial"`` (default),
        ``"thread"``, ``"process"``, ``"node"``, ``"auto"``, or a
        :class:`repro.exec.ExecutionBackend`.  See the module docstring for
        the concurrent-backend caveats.
    workers:
        Worker count for concurrent backends (clamped to ``shards``; each
        worker owns the shard slice ``[worker::n_workers]``).  Defaults to
        the backend's own default (CPU count).
    block_size:
        Records a concurrent shard worker buffers before ``push_many``
        ships a batch (default :data:`DEFAULT_BLOCK_SIZE`; the serial
        backend ingests record by record).  A device's share of a batch is
        the block its vectorized kernels see.  Purely an execution knob:
        any value produces byte-identical per-device segments and
        checkpoints.
    """

    def __init__(
        self,
        *,
        algorithm: str = "operb",
        epsilon: float | None = None,
        epsilons: Sequence[float] | None = None,
        options: dict | None = None,
        shards: int = 4,
        sink_factory: Callable[[str], SegmentSink] | None = None,
        shared_sink: SegmentSink | None = None,
        level_sink_factory: Callable[[str, int], SegmentSink] | None = None,
        on_error: str = "collect",
        backend: str | ExecutionBackend = "serial",
        workers: int | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if shards < 1:
            raise InvalidParameterError(f"shards must be at least 1, got {shards}")
        if block_size < 1:
            raise InvalidParameterError(
                f"block_size must be at least 1, got {block_size}"
            )
        if on_error not in _ON_ERROR_MODES:
            raise InvalidParameterError(
                f"on_error must be one of {_ON_ERROR_MODES}, got {on_error!r}"
            )
        if sink_factory is not None and shared_sink is not None:
            raise InvalidParameterError(
                "pass either sink_factory or shared_sink, not both"
            )
        if shared_sink is not None and not isinstance(shared_sink, SegmentSink):
            raise InvalidParameterError(
                f"shared_sink must satisfy the SegmentSink protocol "
                f"(an accept(segment) method); got {type(shared_sink).__name__}"
            )
        pyramid_epsilons: tuple[float, ...] | None = None
        if epsilons is not None:
            ladder = validate_epsilon_ladder(epsilons)
            if epsilon is not None and float(epsilon) != ladder[0]:
                raise InvalidParameterError(
                    f"epsilon={epsilon!r} conflicts with epsilons[0]={ladder[0]!r}; "
                    f"the ladder's finest level is the hub epsilon"
                )
            epsilon = ladder[0]
            # A one-rung ladder is exactly a single-epsilon hub; collapsing
            # it keeps the checkpoint format (and every downstream byte)
            # identical to passing epsilon= directly.
            if len(ladder) > 1:
                pyramid_epsilons = ladder
        if level_sink_factory is not None and pyramid_epsilons is None:
            raise InvalidParameterError(
                "level_sink_factory requires a multi-level pyramid "
                "(epsilons=[...] with at least two levels)"
            )
        # Validates the default configuration eagerly (epsilon, options).
        self._default = Simplifier(algorithm, epsilon, **dict(options or {}))
        if (
            pyramid_epsilons is not None
            and not self._default.descriptor.pyramid_capable
        ):
            raise InvalidParameterError(
                f"algorithm {self._default.algorithm!r} cannot serve an epsilon "
                f"pyramid: cascading its segment endpoints does not preserve "
                f"the coarse error bound (descriptor.pyramid_capable is false)"
            )
        self._epsilons = pyramid_epsilons
        self._level_sink_factory = level_sink_factory
        self._level_sinks: dict[tuple[str, int], SegmentSink | None] = {}
        self._level_counts: list[int] | None = (
            [0] * (len(pyramid_epsilons) - 1) if pyramid_epsilons else None
        )
        self.on_error = on_error
        self._block_size = block_size
        self._sink_factory = sink_factory
        self._shared_sink = shared_sink
        self._n_shards = shards
        self._backend = resolve_backend(backend, workers=workers)
        self._concurrent = self._backend.name != "serial"
        self._n_actors = min(self._backend.workers, shards) if self._concurrent else 1
        # Backends whose actors run in other processes receive batches as
        # columnar wire frames, and their device-error events cannot carry
        # exception objects; the in-process backends pass references.
        self._crosses_process = self._backend.name in ("process", "node")
        self.errors: list[DeviceError] = []
        self.points_pushed = 0
        self.segments_emitted = 0
        self.sink_failures = 0
        self.batches_shipped = 0
        self.bytes_shipped = 0
        self._known: set[str] = set()
        self._failed: set[str] = set()
        self._finished: set[str] = set()
        """Devices asked to finish; in ``"raise"`` mode their fixes are refused."""
        self._sinks: dict[str, SegmentSink | None] = {}
        self._sinks_closed = False
        self._raise_cursor = 0
        config = _HubConfig(
            algorithm=self._default.algorithm,
            epsilon=self._default.epsilon,
            options=dict(self._default.opts),
            on_error=on_error,
            carry_exceptions=not self._crosses_process,
            epsilons=pyramid_epsilons,
        )
        factories = [
            partial(_ShardCore, config, tuple(range(actor, shards, self._n_actors)))
            for actor in range(self._n_actors)
        ]
        self._group = self._backend.start_actors(factories, on_event=self._on_actor_event)
        # Serial fast path: the single core is called directly on the hot
        # ingest path, skipping message-tuple construction and dispatch.
        self._serial_core: _ShardCore | None = (
            None if self._concurrent else self._group.handler(0)
        )

    # ------------------------------------------------------------------ #
    # Backend plumbing
    # ------------------------------------------------------------------ #
    def _actor_of(self, shard_i: int) -> int:
        return shard_i % self._n_actors

    def _ship_batch(self, actor: int, buffer: list[tuple[int, str, Point]]) -> None:
        """Group one buffered batch per device and hand it to its shard worker.

        In-process backends pass the :func:`~.wire.group_points` groups by
        reference; process and node workers receive the same groups as one
        columnar wire frame (:func:`~.wire.group_records`), which the socket
        transport ships raw — no pickle on the hot path.
        """
        self.batches_shipped += 1
        if self._crosses_process:
            frame = encode_frame(POINT_BATCH_FRAME, group_records(buffer))
            self.bytes_shipped += len(frame)
            self._group.tell(actor, ("push_frame", frame))
        else:
            self._group.tell(actor, ("push_groups", group_points(buffer)))

    def _on_actor_event(self, actor: int, event: tuple) -> None:
        """Route one shard-worker event (serialised by the actor group)."""
        kind = event[0]
        if kind == "level_segments":
            _, device_id, level, segments = event
            if self._level_counts is not None:
                self._level_counts[level - 1] += len(segments)
            sink = self._level_sinks.get((device_id, level))
            if sink is not None:
                try:
                    for segment in segments:
                        sink.accept(segment)
                except Exception as error:  # noqa: BLE001 — sink isolation
                    # Same contract as the finest-level branch below: detach
                    # only the raising level's sink, keep the stream (and
                    # the other levels' sinks) running.
                    self._record_sink_failure(
                        device_id,
                        error,
                        f"level-{level} sink rejected segments: {error}",
                        level=level,
                    )
        elif kind == "segments":
            _, device_id, segments = event
            self.segments_emitted += len(segments)
            sink = self._sinks.get(device_id)
            if sink is not None:
                try:
                    for segment in segments:
                        sink.accept(segment)
                except Exception as error:  # noqa: BLE001 — sink isolation
                    # A raising sink (full disk, closed socket) must not
                    # crash the ingest on any backend: record one
                    # DeviceError, count it in ``sink_failures``, stop
                    # routing to the sink, keep the hub running.  The
                    # device stream itself keeps compressing and is NOT
                    # quarantined — sinks are process-local resources, not
                    # stream state (so the device stays out of ``_failed``
                    # and checkpoints as healthy).  In ``"raise"`` mode the
                    # recorded error still surfaces once, with the original
                    # exception, at the next hub call — loud, but the hub
                    # stays usable.  Nulling the sink also dedupes: this
                    # branch runs once per device.
                    self._record_sink_failure(
                        device_id, error, f"sink rejected segments: {error}"
                    )
        elif kind == "device_error":
            _, device_id, error_type, message, exception, formatted = event
            self.errors.append(
                DeviceError(
                    device_id=device_id,
                    error_type=error_type,
                    message=message,
                    exception=exception,
                    traceback=formatted,
                )
            )
            self._failed.add(device_id)

    def _surface_new_failures(self) -> None:
        """In ``"raise"`` mode, raise the oldest not-yet-surfaced failure.

        On the serial backend this runs synchronously after each dispatch,
        reproducing raise-on-the-failing-push semantics with the original
        exception; on concurrent backends it runs at every hub entry point,
        surfacing asynchronous failures at the next call.
        """
        if self.on_error != "raise" or self._raise_cursor >= len(self.errors):
            return
        error = self.errors[self._raise_cursor]
        self._raise_cursor += 1
        if error.exception is not None:
            raise error.exception
        raise SimplificationError(
            f"device {error.device_id!r} failed mid-stream: "
            f"{error.error_type}: {error.message}"
        )

    def _record_sink_failure(
        self, device_id: str, error: Exception, message: str, *, level: int | None = None
    ) -> None:
        """Detach a raising sink and record the failure (once per device).

        ``level`` selects a pyramid level's sink; ``None`` detaches the
        device's finest-level sink.
        """
        self.sink_failures += 1
        if level is None:
            self._sinks[device_id] = None
        else:
            self._level_sinks[(device_id, level)] = None
        self.errors.append(
            DeviceError(
                device_id=device_id,
                error_type=type(error).__name__,
                message=message,
                exception=error,
                traceback="".join(
                    _traceback.format_exception(type(error), error, error.__traceback__)
                ),
            )
        )

    def _attach_sink(self, device_id: str) -> None:
        """Create/route the device's sink (runs caller-supplied code)."""
        if self._sink_factory is not None:
            sink = self._sink_factory(device_id)
            if not isinstance(sink, SegmentSink):
                raise InvalidParameterError(
                    f"sink_factory returned a {type(sink).__name__} for device "
                    f"{device_id!r}, which does not satisfy the SegmentSink "
                    f"protocol (an accept(segment) method)"
                )
            self._sinks[device_id] = sink
        elif self._shared_sink is not None:
            self._sinks[device_id] = self._shared_sink
        if self._level_sink_factory is not None and self._epsilons is not None:
            for level in range(1, len(self._epsilons)):
                level_sink = self._level_sink_factory(device_id, level)
                if not isinstance(level_sink, SegmentSink):
                    raise InvalidParameterError(
                        f"level_sink_factory returned a "
                        f"{type(level_sink).__name__} for device {device_id!r} "
                        f"level {level}, which does not satisfy the SegmentSink "
                        f"protocol (an accept(segment) method)"
                    )
                self._level_sinks[(device_id, level)] = level_sink

    def _close_sinks(self) -> None:
        """Flush and close every attached sink exactly once (idempotent).

        A shared sink is attached under every device id; closing dedupes by
        identity so its ``close()`` runs once.  Sinks already detached by
        the failure path are skipped.  A sink that raises while flushing or
        closing is recorded as a sink failure — surfacing like any other
        (``stats().sink_failures``, and in ``"raise"`` mode at the next
        surface point) — without stopping the teardown of the others.
        """
        if self._sinks_closed:
            return
        self._sinks_closed = True
        seen: set[int] = set()
        entries: list[tuple[str, int | None, SegmentSink | None]] = [
            (device_id, None, self._sinks[device_id])
            for device_id in sorted(self._sinks)
        ]
        entries.extend(
            (device_id, level, self._level_sinks[(device_id, level)])
            for device_id, level in sorted(self._level_sinks)
        )
        for device_id, level, sink in entries:
            if sink is None or id(sink) in seen:
                continue
            seen.add(id(sink))
            try:
                flush_sink(sink)
                close_sink(sink)
            except Exception as error:  # noqa: BLE001 — sink isolation
                self._record_sink_failure(
                    device_id, error, f"sink close failed: {error}", level=level
                )

    def _ask_all(self, message: tuple) -> list:
        """Ask every shard worker, overlapping the round-trips.

        Sequential asks would serialise drain/snapshot work across workers
        (worker 1 idles while worker 0 flushes); fanning the asks out from
        short-lived threads makes the cost ~max instead of ~sum.  Replies
        come back indexed by actor.
        """
        if self._n_actors == 1:
            return [self._group.ask(0, message)]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=self._n_actors) as pool:
            return list(
                pool.map(
                    lambda actor: self._group.ask(actor, message),
                    range(self._n_actors),
                )
            )

    def _sync(self) -> list[dict]:
        """Barrier the shard workers and refresh the hub-level counters."""
        if self._concurrent:
            self._group.barrier()
        replies = self._ask_all(("stats",))
        self.points_pushed = sum(reply["points_pushed"] for reply in replies)
        self.segments_emitted = sum(reply["segments_emitted"] for reply in replies)
        if self._level_counts is not None:
            totals = [0] * len(self._level_counts)
            for reply in replies:
                counts = reply.get("level_segments")
                if counts:
                    for i, count in enumerate(counts):
                        totals[i] += count
            self._level_counts = totals
        return replies

    def _local_shards(self) -> list[HubShard]:
        if self._group.closed:  # uniform across backends (serial included)
            raise ExecutionError("actor group is closed")
        # local_handlers synchronises: the thread group barriers internally,
        # so the returned shard state is quiescent.
        handlers = self._group.local_handlers
        if handlers is None:
            raise SimplificationError(
                f"per-device stream objects are not addressable under the "
                f"{self._backend.name} backend; use stats() or checkpoint()"
            )
        return [
            handlers[self._actor_of(index)].shards[index]
            for index in range(self._n_shards)
        ]

    def close(self) -> None:
        """Shut down the shard workers and close the sinks (idempotent).

        Serial hubs have nothing to release; thread/process hubs stop their
        workers — pending asynchronous pushes are processed first, so every
        in-flight segment reaches its sink before the sinks are flushed and
        closed.  In ``"raise"`` mode, a device failure that has not
        surfaced yet raises here, after the workers have stopped:
        ``close()`` is a hub call too, and must not swallow the failure
        when it is the last one.
        """
        self._group.close()
        self._close_sinks()
        self._surface_new_failures()

    def __enter__(self) -> "StreamHub":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
            return
        try:
            self._group.close()
        except ReproError:
            # Library errors from the teardown (a dead worker, an
            # unpicklable reply) must never mask the in-flight exception.
            pass
        # Sinks still release their resources on the error path; failures
        # are recorded (never raised) so the in-flight exception stays.
        self._close_sinks()

    # ------------------------------------------------------------------ #
    # Device management
    # ------------------------------------------------------------------ #
    @property
    def algorithm(self) -> str:
        """Default algorithm for implicitly registered devices."""
        return self._default.algorithm

    @property
    def epsilon(self) -> float:
        """Default error bound for implicitly registered devices.

        On a pyramid hub this is the finest level (``epsilons[0]``)."""
        return self._default.epsilon

    @property
    def epsilons(self) -> tuple[float, ...] | None:
        """The pyramid ladder, finest first (``None`` on single-epsilon hubs)."""
        return self._epsilons

    @property
    def pyramid(self) -> bool:
        """Whether this hub cascades every stream into coarser levels."""
        return self._epsilons is not None

    @property
    def backend(self) -> str:
        """Name of the execution backend driving the shards."""
        return self._backend.name

    @property
    def n_workers(self) -> int:
        """Number of shard workers (1 on the serial backend)."""
        return self._n_actors

    @property
    def n_shards(self) -> int:
        """Number of hash partitions."""
        return self._n_shards

    @property
    def block_size(self) -> int:
        """Records buffered per worker before ``push_many`` ships a batch."""
        return self._block_size

    @property
    def shards(self) -> list[HubShard]:
        """The live shard objects, in shard order.

        Serial and thread backends share the caller's memory (the thread
        backend barriers first); under the process backend shard state is
        not addressable and this raises :class:`SimplificationError`.
        """
        return self._local_shards()

    def shard_of(self, device_id: str) -> HubShard:
        """The shard owning (or that would own) ``device_id``."""
        return self._local_shards()[shard_index(device_id, self._n_shards)]

    def __len__(self) -> int:
        return len(self._known)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._known

    def devices(self) -> Iterator[DeviceStream]:
        """Iterate over every device stream (shard order, then insertion).

        Not available under the process backend (see :attr:`shards`).
        """
        for shard in self._local_shards():
            yield from shard.devices.values()

    def device(self, device_id: str) -> DeviceStream:
        """Look up one device stream.

        Raises
        ------
        InvalidParameterError
            If the device is not registered.
        SimplificationError
            Under the process backend (stream objects live in workers).
        ExecutionError
            When the hub has been closed (any backend).
        """
        if device_id not in self._known:
            raise InvalidParameterError(
                f"device {device_id!r} is not registered with this hub"
            )
        shard_i = shard_index(device_id, self._n_shards)
        return self._local_shards()[shard_i].devices[device_id]

    def register_device(
        self,
        device_id: str,
        *,
        algorithm: str | None = None,
        epsilon: float | None = None,
        **opts,
    ) -> DeviceStream | None:
        """Open a stream for ``device_id``, optionally overriding defaults.

        Returns the live :class:`DeviceStream` on in-process backends;
        ``None`` under the process backend (the stream lives in a worker).

        Raises
        ------
        InvalidParameterError
            If ``device_id`` is not a ``str``, the device is already
            registered, or the per-device configuration is invalid (unknown
            algorithm/options, bad epsilon) — configuration fails fast,
            before any point arrives.
        """
        shard_i = shard_index(device_id, self._n_shards)
        if device_id in self._known:
            raise InvalidParameterError(
                f"device {device_id!r} is already registered with this hub"
            )
        if self._epsilons is not None and (
            algorithm is not None or epsilon is not None or opts
        ):
            raise InvalidParameterError(
                "per-device overrides are not supported on a pyramid hub; "
                "every device shares the hub-wide epsilons=[...] ladder"
            )
        self._open_device(shard_i, device_id, algorithm, epsilon, opts)
        # The ask round-trip guarantees the registration was processed, so
        # the new entry is readable without a group-wide barrier.
        core = self._group.handler(self._actor_of(shard_i))
        if core is None:
            return None
        return core.shards[shard_i].devices[device_id]

    def _open_device(
        self,
        shard_i: int,
        device_id: str,
        algorithm: str | None = None,
        epsilon: float | None = None,
        opts: dict | None = None,
    ) -> None:
        """Register ``device_id`` on its shard worker, then attach its sinks."""
        self._group.ask(
            self._actor_of(shard_i),
            ("register", shard_i, device_id, algorithm, epsilon, dict(opts or {})),
        )
        self._known.add(device_id)
        self._attach_sink(device_id)

    def _refuse_closed(self, device_id: str) -> None:
        """``"raise"`` mode: refuse a fix for a quarantined or finished device."""
        if device_id in self._failed:
            error = next(e for e in reversed(self.errors) if e.device_id == device_id)
            raise SimplificationError(
                f"device {device_id!r} is quarantined after "
                f"{error.error_type}: {error.message}"
            )
        if device_id in self._finished:
            raise SimplificationError(
                f"device {device_id!r} is finished; its stream accepts no more fixes"
            )

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def push(self, device_id: str, point: Point) -> list[SegmentRecord]:
        """Route one fix to its device stream (registering it on first sight).

        On the serial backend, returns the segments this push finalised
        (already routed to the device's sink); concurrent backends ship the
        fix as a one-record batch and return ``[]`` (sinks still receive
        every segment).  A device that raised earlier is quarantined — its
        stream state is not trusted again — and a finished device accepts
        no more fixes: in ``"collect"`` mode their fixes are counted as
        dropped, in ``"raise"`` mode a :class:`SimplificationError` names
        the quarantine or the finished stream.  Only the first failing push
        propagates the original exception, synchronously on serial, at the
        next hub call on concurrent backends.  A non-``str`` ``device_id``
        raises :class:`InvalidParameterError` before any state changes.
        """
        shard_i = shard_index(device_id, self._n_shards)
        if self._concurrent:
            self._surface_new_failures()
        if device_id not in self._known:
            self._open_device(shard_i, device_id)
        elif self.on_error == "raise":
            self._refuse_closed(device_id)
        if self._concurrent:
            self._ship_batch(self._actor_of(shard_i), [(shard_i, device_id, point)])
            return []
        if self._group.closed:  # the fast path must not outlive close()
            raise ExecutionError("actor group is closed")
        emitted, consumed = self._serial_core._ingest(shard_i, device_id, (point,))
        self.points_pushed += consumed
        self._surface_new_failures()
        return emitted

    def push_many(self, records: Iterable[tuple[str, Point]]) -> int:
        """Route a batch of ``(device_id, point)`` records.

        The serial backend pushes record by record, in arrival order, and
        returns the number of segments emitted.  That loop stays on
        purpose: grouping per device first would make a shared sink's
        cross-device order depend on where batches split (so a resumed hub
        would no longer replay byte-identically into one), and it keeps
        ``on_error="raise"`` exact (later records untouched).  Concurrent
        backends ship ``block_size``-record batches grouped per device,
        ingest asynchronously and return ``0`` — read
        ``stats().segments_emitted`` after a synchronising call.  A
        non-``str`` device id raises :class:`InvalidParameterError` at its
        record; the records before it are ingested on every backend.
        """
        if not self._concurrent:
            emitted = 0
            for device_id, point in records:
                emitted += len(self.push(device_id, point))
            return emitted
        self._surface_new_failures()  # pending originals surface before any
        # quarantine error derived from them, matching push()'s ordering
        buffers: list[list[tuple[int, str, Point]]] = [
            [] for _ in range(self._n_actors)
        ]
        raising = self.on_error == "raise"
        try:
            for device_id, point in records:
                shard_i = shard_index(device_id, self._n_shards)
                actor = self._actor_of(shard_i)
                if device_id not in self._known:
                    self._surface_new_failures()
                    self._open_device(shard_i, device_id)
                elif raising:
                    self._refuse_closed(device_id)
                buffer = buffers[actor]
                buffer.append((shard_i, device_id, point))
                if len(buffer) >= self._block_size:
                    buffers[actor] = []
                    self._ship_batch(actor, buffer)
        finally:
            # Also on a raise: the records preceding the failing one are
            # ingested exactly as they would have been serially.
            for actor, buffer in enumerate(buffers):
                if buffer:
                    buffers[actor] = []
                    self._ship_batch(actor, buffer)
        if raising:
            # Deterministic raise semantics: drain this call's own batches
            # so a device failure inside them surfaces here, not at some
            # later call (or never, if the caller goes straight to close()).
            self._group.barrier()
        self._surface_new_failures()
        return 0

    def finish_device(self, device_id: str) -> list[SegmentRecord]:
        """Flush one device stream (idempotent for already-finished devices)."""
        if device_id not in self._known:
            raise InvalidParameterError(
                f"device {device_id!r} is not registered with this hub"
            )
        shard_i = shard_index(device_id, self._n_shards)
        if self._concurrent:
            self._surface_new_failures()
        emitted = self._group.ask(
            self._actor_of(shard_i), ("finish_device", shard_i, device_id)
        )
        self._finished.add(device_id)
        self._surface_new_failures()
        return emitted

    def finish_all(self) -> dict[str, list[SegmentRecord]]:
        """Flush every live device stream; maps device id -> trailing segments.

        Synchronises all backends: pending asynchronous pushes are processed
        before the flush, and the returned mapping is complete on return.
        """
        if self._concurrent:
            self._surface_new_failures()
        by_shard: dict[int, list] = {}
        for reply in self._ask_all(("finish_all",)):
            for shard_i, flushed in reply:
                by_shard[shard_i] = flushed
        result: dict[str, list[SegmentRecord]] = {}
        for shard_i in range(self._n_shards):
            for device_id, emitted in by_shard.get(shard_i, []):
                result[device_id] = emitted
        self._finished.update(self._known)
        # The flush already drained every mailbox; refresh the hub-level
        # counters so they are authoritative on return, as documented.
        self._sync()
        self._surface_new_failures()
        return result

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def stats(self) -> HubStats:
        """Aggregate hub statistics (lag, throughput counters, shard fill).

        Synchronising: barriers the shard workers first, so the counters
        reflect every push routed before the call.  In ``"raise"`` mode a
        not-yet-surfaced device failure raises here (``checkpoint()`` is the
        one synchronising call that never raises for device failures, so a
        failed hub can always be checkpointed).
        """
        replies = self._sync()
        self._surface_new_failures()
        shard_devices = [0] * self._n_shards
        shard_points = [0] * self._n_shards
        for reply in replies:
            for shard_i, n_devices, points in reply["shards"]:
                shard_devices[shard_i] = n_devices
                shard_points[shard_i] = points
        return HubStats(
            devices=sum(reply["devices"] for reply in replies),
            active=sum(reply["active"] for reply in replies),
            finished=sum(reply["finished"] for reply in replies),
            failed=sum(reply["failed"] for reply in replies),
            points_pushed=self.points_pushed,
            segments_emitted=self.segments_emitted,
            dropped_points=sum(reply["dropped"] for reply in replies),
            max_lag=max(reply["max_lag"] for reply in replies),
            max_segments_per_push=max(reply["max_burst"] for reply in replies),
            shard_devices=shard_devices,
            shard_points=shard_points,
            sink_failures=self.sink_failures,
            batches_shipped=self.batches_shipped,
            bytes_shipped=self.bytes_shipped,
            frames_decoded=sum(reply.get("frames_decoded", 0) for reply in replies),
            epsilons=None if self._epsilons is None else list(self._epsilons),
            segments_by_level=(
                None
                if self._level_counts is None
                else [self.segments_emitted, *self._level_counts]
            ),
        )

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> dict:
        """JSON-serialisable snapshot of the hub and every device stream.

        Barriers the shard workers first (every routed point is reflected),
        then captures live streams through the simplifiers' ``snapshot()``
        protocol; finished and failed devices are recorded for bookkeeping
        (counters, error descriptions) without stream state.  For the same
        ingested records the payload is byte-identical whichever backend
        produced it (in ``"raise"`` mode, a surfaced failure interrupts the
        serial backend mid-batch while concurrent workers drain records
        already in flight, so post-failure ``dropped_points`` accounting may
        differ — quarantine a failing device via ``"collect"`` when
        byte-stable checkpoints across backends matter).  Restoring the
        payload with :meth:`from_checkpoint` and continuing the ingest
        produces byte-identical downstream segments.

        Raises
        ------
        CheckpointError
            When a live device uses an algorithm whose streaming
            implementation does not support snapshots (see
            ``AlgorithmDescriptor.snapshot_capable``).
        """
        self._group.barrier()
        by_shard: dict[int, list[dict]] = {}
        shard_points = [0] * self._n_shards
        for reply in self._ask_all(("checkpoint",)):
            for shard_i, entries, points in reply:
                by_shard[shard_i] = entries
                shard_points[shard_i] = points
        devices: list[dict] = []
        for shard_i in range(self._n_shards):
            devices.extend(by_shard.get(shard_i, []))
        # The hub-level counters are fully derivable from the entries (they
        # were recomputed the same way by _sync() before) — refreshing them
        # here spares the periodic-checkpoint path a second per-device walk.
        self.points_pushed = sum(shard_points)
        self.segments_emitted = sum(
            int(entry["stats"]["segments_emitted"]) for entry in devices
        )
        hub_section: dict[str, object] = {
            "algorithm": self._default.algorithm,
            "epsilon": self._default.epsilon,
            "options": dict(self._default.opts),
            "shards": self._n_shards,
            "on_error": self.on_error,
            "points_pushed": self.points_pushed,
            "segments_emitted": self.segments_emitted,
            "shard_points": shard_points,
        }
        if self._epsilons is not None:
            hub_section["epsilons"] = list(self._epsilons)
        return {
            "format": (
                CHECKPOINT_FORMAT
                if self._epsilons is None
                else PYRAMID_CHECKPOINT_FORMAT
            ),
            "kind": CHECKPOINT_KIND,
            "hub": hub_section,
            "devices": devices,
        }

    @classmethod
    def from_checkpoint(
        cls,
        payload: dict,
        *,
        sink_factory: Callable[[str], SegmentSink] | None = None,
        shared_sink: SegmentSink | None = None,
        level_sink_factory: Callable[[str, int], SegmentSink] | None = None,
        shards: int | None = None,
        backend: str | ExecutionBackend = "serial",
        workers: int | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "StreamHub":
        """Rebuild a hub (and every live device stream) from a checkpoint.

        Sinks are process-local resources (open files, sockets) and are not
        part of the checkpoint; pass fresh ones here.  ``shards`` restores
        onto a different shard count: devices re-shard deterministically
        through the CRC32 map and per-shard counters are recomputed from the
        per-device ones (the default keeps the checkpointing layout).
        ``backend``/``workers``/``block_size`` choose the execution shape of
        the restored hub independently of the one that checkpointed —
        checkpoints are mutually restorable across backends and block sizes.

        Raises
        ------
        CheckpointError
            On a malformed payload or an incompatible format version.
        """
        if not isinstance(payload, dict) or payload.get("kind") != CHECKPOINT_KIND:
            raise CheckpointError(
                f"not a stream-hub checkpoint payload (kind="
                f"{payload.get('kind')!r})" if isinstance(payload, dict)
                else "checkpoint payload must be a dict"
            )
        payload_format = payload.get("format")
        if payload_format not in (CHECKPOINT_FORMAT, PYRAMID_CHECKPOINT_FORMAT):
            raise CheckpointError(
                f"unsupported checkpoint format {payload_format!r}; this build "
                f"reads formats {CHECKPOINT_FORMAT} (single-epsilon) and "
                f"{PYRAMID_CHECKPOINT_FORMAT} (pyramid)"
            )
        # Caller-supplied arguments are validated before the payload-shape
        # try block: a bad backend/workers/shards argument is the caller's
        # InvalidParameterError, not a "malformed checkpoint".
        executor = resolve_backend(backend, workers=workers)
        if shards is not None and int(shards) < 1:
            raise InvalidParameterError(f"shards must be at least 1, got {shards}")
        try:
            hub_config = payload["hub"]
            stored_epsilons = hub_config.get("epsilons")
            if (payload_format == PYRAMID_CHECKPOINT_FORMAT) != (
                stored_epsilons is not None
            ):
                raise CheckpointError(
                    f"checkpoint format {payload_format!r} is inconsistent with "
                    f"its hub section (epsilons={stored_epsilons!r}); pyramid "
                    f"checkpoints are format {PYRAMID_CHECKPOINT_FORMAT} and "
                    f"carry the ladder"
                )
            n_shards = int(shards) if shards is not None else int(hub_config["shards"])
            hub = cls(
                algorithm=hub_config["algorithm"],
                epsilon=None if stored_epsilons else hub_config["epsilon"],
                epsilons=stored_epsilons,
                options=dict(hub_config.get("options", {})),
                shards=n_shards,
                sink_factory=sink_factory,
                shared_sink=shared_sink,
                level_sink_factory=level_sink_factory,
                on_error=hub_config["on_error"],
                backend=executor,
                workers=workers,
                block_size=block_size,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(f"malformed stream-hub checkpoint: {error!r}") from error
        try:
            stored_points = [int(points) for points in hub_config["shard_points"]]
            recomputed = [0] * n_shards
            restored_ids: list[str] = []
            for entry in payload["devices"]:
                device_id = entry["device_id"]
                if device_id in hub._known:
                    raise InvalidParameterError(
                        f"device {device_id!r} appears twice in the checkpoint"
                    )
                shard_i = shard_index(device_id, n_shards)
                hub._group.ask(hub._actor_of(shard_i), ("restore", shard_i, entry))
                # Sinks are attached after this payload-domain block: a
                # raising caller-supplied sink_factory must not be relabelled
                # as a malformed checkpoint.
                hub._known.add(device_id)
                if entry.get("finished"):
                    hub._finished.add(device_id)
                restored_ids.append(device_id)
                recomputed[shard_i] += int(entry["stats"]["points_pushed"])
                failure = entry.get("failed")
                if failure is not None:
                    error = DeviceError(
                        device_id=device_id,
                        error_type=failure["error_type"],
                        message=failure["message"],
                    )
                    hub.errors.append(error)
                    hub._failed.add(device_id)
            # Same layout: restore the exact shard counters.  Re-sharded:
            # recompute them from the per-device counters (their sums agree).
            shard_points = (
                stored_points if len(stored_points) == n_shards else recomputed
            )
            per_actor: list[dict[int, int]] = [{} for _ in range(hub._n_actors)]
            for shard_i, points in enumerate(shard_points):
                per_actor[hub._actor_of(shard_i)][shard_i] = points
            for actor, mapping in enumerate(per_actor):
                hub._group.ask(actor, ("load_shard_points", mapping))
            hub.points_pushed = int(hub_config["points_pushed"])
            hub.segments_emitted = int(hub_config["segments_emitted"])
            # Restored failures were surfaced in the checkpointing process;
            # only failures after the restore are new.
            hub._raise_cursor = len(hub.errors)
        except BaseException as error:
            # The hub already spawned its shard workers: never leak them on
            # a failed restore (a resume-retry loop would pile up worker
            # processes otherwise).
            try:
                hub.close()
            except ReproError:
                # Teardown errors (dead workers, restored failures surfacing
                # in "raise" mode) must not mask the restore failure.
                pass
            if isinstance(error, CheckpointError):
                raise
            if isinstance(error, (KeyError, TypeError, ValueError)):
                raise CheckpointError(
                    f"malformed stream-hub checkpoint: {error!r}"
                ) from error
            # The registry may have validated but the snapshot protocol
            # errors surface as SimplificationError; those (and anything
            # else) propagate untouched — they indicate state (not
            # payload-shape) problems.
            raise
        try:
            # Caller-supplied sink code runs outside the payload-shape
            # mapping: its exceptions are the caller's, raised untouched.
            for device_id in restored_ids:
                hub._attach_sink(device_id)
        except BaseException:
            try:
                hub.close()
            except ReproError:
                # Same teardown rule: never mask the sink factory's error.
                pass
            raise
        return hub

    def __repr__(self) -> str:
        return (
            f"StreamHub(algorithm={self.algorithm!r}, epsilon={self.epsilon!r}, "
            f"shards={self.n_shards}, devices={len(self)}, "
            f"backend={self.backend!r})"
        )
