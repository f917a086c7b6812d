"""Columnar wire codec for the hub's shipped batches and control frames.

The concurrent hub ships ingest work to its shard workers as batches.  On
the in-process backends a batch is just a Python list; on the node
backend it has to cross a serialization boundary, and pickling a
``list[tuple[int, str, Point]]`` pays per-point object overhead on the
hottest path in the system.  This module makes :class:`PointBlock` the wire
unit instead: a *frame* carries each device's points as three little-endian
``float64`` columns plus the device id, so encoding is three ``tobytes``
calls per device and decoding lands directly in the SoA blocks the
simplifiers' vectorized ``push_block`` path consumes.

Frame model
-----------
A frame body is ``magic (2B, b"RW") | version (1B) | kind (1B) | payload``.
On a plain byte stream frames travel length-prefixed:
``u32 LE body length | body`` — see :func:`pack_frame` / :func:`read_frame`.
Inside a packet of the node backend's socket actor transport
(:mod:`repro.exec.node`) the body travels bare,
because the packet header already carries its length.

Every frame kind is registered in :data:`FRAME_TYPES` with an explicit
``encode``/``decode`` function pair — the codec never falls back to pickle,
and rule RPA006 machine-checks both properties.  Registered kinds:

====  ===================  ==============================================
kind  name                 payload
====  ===================  ==============================================
0x01  json                 any JSON value (handshakes, control replies)
0x02  point-batch          ``list[(shard, device_id, PointBlock)]``,
                           columnar ``<f8`` x/y/t columns per device
0x04  segment-batch        one ``("segments" | "level_segments", device,
                           level, [SegmentRecord, ...])`` event, columnar
0x05  blob                 opaque ``bytes`` (the transport layer's escape
                           hatch; *this module* never interprets them)
====  ===================  ==============================================

Determinism contract: encoding is a pure function of the payload (stable
key order, no clocks, no ambient state), and every decode reconstructs the
payload bit for bit — ``float64`` columns round-trip exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Iterable

import numpy as np

from ..exceptions import WireFormatError
from ..geometry.point import Point
from ..trajectory.piecewise import SegmentRecord
from ..trajectory.soa import PointBlock

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "JSON_FRAME",
    "POINT_BATCH_FRAME",
    "SEGMENT_BATCH_FRAME",
    "BLOB_FRAME",
    "POINT_BATCH_FORMATS",
    "FRAME_TYPES",
    "FrameType",
    "register_frame",
    "encode_frame",
    "decode_frame",
    "pack_frame",
    "read_frame",
    "group_points",
    "group_records",
    "encode_json",
    "decode_json",
    "encode_point_batch",
    "decode_point_batch",
    "encode_segment_batch",
    "decode_segment_batch",
    "encode_blob",
    "decode_blob",
]

WIRE_MAGIC = b"RW"
"""Leading magic bytes of every frame body."""

WIRE_VERSION = 1
"""Wire protocol version; bumped on incompatible layout changes."""

PointBatch = list[tuple[int, str, PointBlock]]
"""Payload type of the point-batch frame: per-device SoA groups, each
tagged with the shard index that owns the device."""

SegmentBatch = tuple[str, str, int, list[SegmentRecord]]
"""Payload type of the segment-batch frame: ``(event kind, device id,
pyramid level, records)`` — exactly one shard-worker segment event."""

_HEADER = struct.Struct("<2sBB")
_LENGTH = struct.Struct("<I")
_GROUP_HEADER = struct.Struct("<IHI")
"""Per-device group header of a point-batch: shard index, device-id byte
length, point count."""
_SEGMENT_HEADER = struct.Struct("<BHII")
"""Segment-batch header: event-kind tag, device-id byte length, level,
record count."""
_SEGMENT_RECORD = struct.Struct("<6d4qB")
"""One segment record: start/end ``(x, y, t)`` as ``<f8``, the four index
counters as ``<i8``, and a patched-endpoint flag byte."""

_SEGMENT_EVENT_TAGS = ("segments", "level_segments")


@dataclass(frozen=True, slots=True)
class FrameType:
    """One registered frame kind and its explicit codec pair."""

    kind: int
    name: str
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]


FRAME_TYPES: dict[int, FrameType] = {}
"""Registered frame types by kind byte (see :func:`register_frame`)."""

_FRAME_NAMES: dict[str, FrameType] = {}


def register_frame(
    kind: int,
    name: str,
    encode: Callable[[Any], bytes],
    decode: Callable[[bytes], Any],
) -> FrameType:
    """Register a frame kind with its explicit ``encode``/``decode`` pair.

    ``kind`` must be an unused byte value and ``name`` an unused slug; the
    pair contract (every registered kind round-trips through two named
    module-level functions, no pickle anywhere in a wire module) is
    enforced statically by analysis rule RPA006.
    """
    if not 0 < kind < 256:
        raise WireFormatError(f"frame kind must be a byte value in 1..255, got {kind}")
    if kind in FRAME_TYPES:
        raise WireFormatError(f"frame kind {kind:#04x} is already registered")
    if name in _FRAME_NAMES:
        raise WireFormatError(f"frame name {name!r} is already registered")
    frame_type = FrameType(kind, name, encode, decode)
    FRAME_TYPES[kind] = frame_type
    _FRAME_NAMES[name] = frame_type
    return frame_type


# ---------------------------------------------------------------------- #
# Frame envelope
# ---------------------------------------------------------------------- #
def encode_frame(name: str, payload: Any) -> bytes:
    """Encode ``payload`` as one frame body of the named kind."""
    frame_type = _FRAME_NAMES.get(name)
    if frame_type is None:
        raise WireFormatError(
            f"unknown frame type {name!r}; registered: {', '.join(sorted(_FRAME_NAMES))}"
        )
    return _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, frame_type.kind) + frame_type.encode(
        payload
    )


def decode_frame(body: bytes) -> tuple[str, Any]:
    """Decode one frame body; returns ``(frame name, payload)``."""
    if len(body) < _HEADER.size:
        raise WireFormatError(f"frame truncated: {len(body)} bytes is not even a header")
    magic, version, kind = _HEADER.unpack_from(body)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r} (expected {WIRE_MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version} (this codec speaks {WIRE_VERSION})"
        )
    frame_type = FRAME_TYPES.get(kind)
    if frame_type is None:
        raise WireFormatError(f"unknown frame kind {kind:#04x}")
    return frame_type.name, frame_type.decode(body[_HEADER.size :])


def pack_frame(body: bytes) -> bytes:
    """Length-prefix one frame body for a byte stream (``u32 LE`` length)."""
    return _LENGTH.pack(len(body)) + body


def read_frame(reader: BinaryIO) -> bytes | None:
    """Read one length-prefixed frame body from a byte stream.

    Returns ``None`` on a clean end-of-stream (no bytes at all); raises
    :class:`WireFormatError` when the stream ends inside a frame.
    """
    prefix = reader.read(_LENGTH.size)
    if not prefix:
        return None
    if len(prefix) < _LENGTH.size:
        raise WireFormatError("stream ended inside a frame length prefix")
    (length,) = _LENGTH.unpack(prefix)
    body = reader.read(length)
    if len(body) < length:
        raise WireFormatError(
            f"stream ended inside a frame: expected {length} bytes, got {len(body)}"
        )
    return body


def _read_exact(body: bytes, offset: int, size: int, what: str) -> int:
    end = offset + size
    if end > len(body):
        raise WireFormatError(
            f"frame truncated inside {what}: need {size} bytes at offset {offset}, "
            f"have {len(body) - offset}"
        )
    return end


# ---------------------------------------------------------------------- #
# json — control payloads
# ---------------------------------------------------------------------- #
def encode_json(payload: Any) -> bytes:
    """Encode a JSON-serialisable control payload (stable key order)."""
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise WireFormatError(f"payload is not JSON-encodable: {error}") from error
    return text.encode("utf-8")


def decode_json(body: bytes) -> Any:
    """Inverse of :func:`encode_json`."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireFormatError(f"malformed json frame: {error}") from error


# ---------------------------------------------------------------------- #
# point-batch — the ingest hot path
# ---------------------------------------------------------------------- #
def group_points(
    records: Iterable[tuple[int, str, Point]],
) -> list[tuple[int, str, list[Point]]]:
    """Group shipped ``(shard, device, point)`` records per device.

    Keeps first-appearance device order and within-device arrival order.
    The hub's one grouping loop: in-process shard workers receive these
    groups, and :func:`group_records` packs them for the wire.
    """
    grouped: dict[str, list[Point]] = {}
    shard_of: dict[str, int] = {}
    for shard_i, device_id, point in records:
        bucket = grouped.get(device_id)
        if bucket is None:
            grouped[device_id] = [point]
            shard_of[device_id] = shard_i
        else:
            bucket.append(point)
    return [
        (shard_of[device_id], device_id, points)
        for device_id, points in grouped.items()
    ]


def group_records(records: Iterable[tuple[int, str, Point]]) -> PointBatch:
    """:func:`group_points` with each group packed into a :class:`PointBlock`,
    ready for the point-batch frame."""
    return [
        (shard_i, device_id, PointBlock.from_points(points))
        for shard_i, device_id, points in group_points(records)
    ]


def encode_point_batch(payload: PointBatch) -> bytes:
    """Encode per-device point groups as little-endian ``float64`` columns."""
    chunks = [_LENGTH.pack(len(payload))]
    for shard_i, device_id, block in payload:
        ident = device_id.encode("utf-8")
        if len(ident) > 0xFFFF:
            raise WireFormatError(
                f"device id too long for the wire ({len(ident)} utf-8 bytes)"
            )
        chunks.append(_GROUP_HEADER.pack(shard_i, len(ident), len(block)))
        chunks.append(ident)
        chunks.append(np.ascontiguousarray(block.xs, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(block.ys, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(block.ts, dtype="<f8").tobytes())
    return b"".join(chunks)


def _decode_column(body: bytes, offset: int, count: int) -> tuple[np.ndarray, int]:
    end = _read_exact(body, offset, 8 * count, "a float64 column")
    column = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
    # Copy off the wire buffer: blocks outlive the frame, and downstream
    # consumers expect ordinary writable arrays.
    return column.astype(float, copy=True), end


def decode_point_batch(body: bytes) -> PointBatch:
    """Inverse of :func:`encode_point_batch`."""
    offset = _read_exact(body, 0, _LENGTH.size, "the group count")
    (n_groups,) = _LENGTH.unpack_from(body)
    groups: PointBatch = []
    for _ in range(n_groups):
        end = _read_exact(body, offset, _GROUP_HEADER.size, "a group header")
        shard_i, ident_len, n_points = _GROUP_HEADER.unpack_from(body, offset)
        offset = end
        end = _read_exact(body, offset, ident_len, "a device id")
        device_id = body[offset:end].decode("utf-8")
        offset = end
        xs, offset = _decode_column(body, offset, n_points)
        ys, offset = _decode_column(body, offset, n_points)
        ts, offset = _decode_column(body, offset, n_points)
        groups.append((shard_i, device_id, PointBlock(xs, ys, ts)))
    if offset != len(body):
        raise WireFormatError(
            f"point-batch frame has {len(body) - offset} trailing bytes"
        )
    return groups


# ---------------------------------------------------------------------- #
# segment-batch — shard-worker segment events
# ---------------------------------------------------------------------- #
def encode_segment_batch(payload: SegmentBatch) -> bytes:
    """Encode one segment event columnarly (endpoints as ``<f8`` sextets)."""
    tag, device_id, level, records = payload
    if tag not in _SEGMENT_EVENT_TAGS:
        raise WireFormatError(
            f"segment-batch event kind must be one of {_SEGMENT_EVENT_TAGS}, got {tag!r}"
        )
    ident = device_id.encode("utf-8")
    if len(ident) > 0xFFFF:
        raise WireFormatError(
            f"device id too long for the wire ({len(ident)} utf-8 bytes)"
        )
    chunks = [
        _SEGMENT_HEADER.pack(
            _SEGMENT_EVENT_TAGS.index(tag), len(ident), level, len(records)
        ),
        ident,
    ]
    for record in records:
        flags = (1 if record.patched_start else 0) | (2 if record.patched_end else 0)
        chunks.append(
            _SEGMENT_RECORD.pack(
                record.start.x,
                record.start.y,
                record.start.t,
                record.end.x,
                record.end.y,
                record.end.t,
                record.first_index,
                record.last_index,
                record.point_count,
                record.covered_last_index,
                flags,
            )
        )
    return b"".join(chunks)


def decode_segment_batch(body: bytes) -> SegmentBatch:
    """Inverse of :func:`encode_segment_batch`."""
    offset = _read_exact(body, 0, _SEGMENT_HEADER.size, "the segment-batch header")
    tag_index, ident_len, level, n_records = _SEGMENT_HEADER.unpack_from(body)
    if tag_index >= len(_SEGMENT_EVENT_TAGS):
        raise WireFormatError(f"unknown segment-batch event tag {tag_index}")
    end = _read_exact(body, offset, ident_len, "a device id")
    device_id = body[offset:end].decode("utf-8")
    offset = end
    records = []
    for _ in range(n_records):
        offset_end = _read_exact(body, offset, _SEGMENT_RECORD.size, "a segment record")
        (
            start_x,
            start_y,
            start_t,
            end_x,
            end_y,
            end_t,
            first_index,
            last_index,
            point_count,
            covered_last_index,
            flags,
        ) = _SEGMENT_RECORD.unpack_from(body, offset)
        offset = offset_end
        records.append(
            SegmentRecord(
                start=Point(start_x, start_y, start_t),
                end=Point(end_x, end_y, end_t),
                first_index=first_index,
                last_index=last_index,
                point_count=point_count,
                covered_last_index=covered_last_index,
                patched_start=bool(flags & 1),
                patched_end=bool(flags & 2),
            )
        )
    if offset != len(body):
        raise WireFormatError(
            f"segment-batch frame has {len(body) - offset} trailing bytes"
        )
    return (_SEGMENT_EVENT_TAGS[tag_index], device_id, level, records)


# ---------------------------------------------------------------------- #
# blob — opaque transport payloads
# ---------------------------------------------------------------------- #
def encode_blob(payload: bytes) -> bytes:
    """Pass opaque bytes through unchanged (the transport's escape hatch)."""
    if not isinstance(payload, (bytes, bytearray, memoryview)):
        raise WireFormatError(
            f"blob frames carry bytes, got {type(payload).__name__}"
        )
    return bytes(payload)


def decode_blob(body: bytes) -> bytes:
    """Inverse of :func:`encode_blob`."""
    return bytes(body)


JSON_FRAME = register_frame(0x01, "json", encode_json, decode_json).name
POINT_BATCH_FRAME = register_frame(
    0x02, "point-batch", encode_point_batch, decode_point_batch
).name
SEGMENT_BATCH_FRAME = register_frame(
    0x04, "segment-batch", encode_segment_batch, decode_segment_batch
).name
BLOB_FRAME = register_frame(0x05, "blob", encode_blob, decode_blob).name

POINT_BATCH_FORMATS = {"columnar": POINT_BATCH_FRAME}
"""Point-batch encodings by name and the frame each selects (columnar only)."""
