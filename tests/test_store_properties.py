"""Property-based tests (hypothesis) for the segment store.

Five properties carry the store's correctness story:

1. **Round trip** — after an arbitrary interleaving of appends across
   devices, buckets and epsilons, every query returns exactly what a
   naive in-memory reference (a list plus the same row predicate, in the
   same canonical order) says it should.
2. **Pruning soundness** — for every randomly generated workload and
   query, the zone-map-pruned result is byte-identical (via the JSON
   views the CLI serialises) to the forced full scan.  Together with the
   round-trip property this pins data skipping to "faster, never
   different".
3. **Crash recovery** — truncating or corrupting a partition file at an
   arbitrary byte offset, then reopening, recovers exactly the committed
   chunk prefix; no crash point leaves a partition unreadable.
4. **Compaction identity** — compacting any store leaves every query's
   results byte-identical, before and after a reopen.
5. **Pushdown equivalence** — sidecar-served window aggregates equal the
   row-scan path for arbitrary specs and window grids (``total_length``
   up to float summation order).

The store filters rows with :meth:`QuerySpec.mask` over chunk columns;
a sixth property pins that mask to :meth:`QuerySpec.matches` row by row,
with window and bbox edges placed exactly on stored endpoints.  Segments
are drawn in either direction on every axis (``end.t < start.t`` too).
"""

from __future__ import annotations

import json
import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import Point, SegmentRecord
from repro.store import QuerySpec, open_store
from repro.store.layout import (
    DEVICES_DIR,
    decode_columns,
    encode_chunk,
    encode_chunk_rows,
    encode_device_dir,
    partition_data_name,
)

COMMON_SETTINGS = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

DEVICES = ("cab-1", "cab-2", "van/3")

coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, width=64)
times = st.floats(min_value=-500.0, max_value=2500.0, allow_nan=False, width=64)


@st.composite
def segment_records(draw):
    t0 = draw(times)
    return SegmentRecord(
        start=Point(draw(coords), draw(coords), t0),
        end=Point(draw(coords), draw(coords), t0 + draw(st.floats(-300.0, 300.0))),
        first_index=0,
        last_index=1,
        point_count=2,
        covered_last_index=1,
    )


@st.composite
def append_batches(draw):
    """An interleaving of appends: (device, epsilon, [segments])."""
    n_batches = draw(st.integers(min_value=1, max_value=6))
    batches = []
    for _ in range(n_batches):
        device = draw(st.sampled_from(DEVICES))
        epsilon = draw(st.sampled_from((5.0, 20.0)))
        records = draw(st.lists(segment_records(), min_size=0, max_size=5))
        batches.append((device, epsilon, records))
    return batches


@st.composite
def query_specs(draw):
    device = draw(st.none() | st.sampled_from(DEVICES))
    window = None
    if draw(st.booleans()):
        t0 = draw(times)
        window = (t0, t0 + draw(st.floats(0.0, 1000.0)))
    bbox = None
    if draw(st.booleans()):
        x0, y0 = draw(coords), draw(coords)
        bbox = (x0, y0, x0 + draw(st.floats(0.0, 5000.0)), y0 + draw(st.floats(0.0, 5000.0)))
    epsilon = draw(st.none() | st.sampled_from((5.0, 20.0)))
    return QuerySpec(device=device, window=window, bbox=bbox, epsilon=epsilon)


@st.composite
def edge_query_specs(draw, records):
    """Specs whose window and bbox edges sit exactly on stored endpoint
    coordinates (both edges are inclusive), or ``query_specs()`` ones."""
    if not records or draw(st.booleans()):
        return draw(query_specs())
    ts = [value for record in records for value in (record.start.t, record.end.t)]
    xs = [value for record in records for value in (record.start.x, record.end.x)]
    ys = [value for record in records for value in (record.start.y, record.end.y)]

    def edges(values):
        return tuple(sorted(draw(st.sampled_from(values)) for _ in range(2)))

    window = edges(ts) if draw(st.booleans()) else None
    bbox = None
    if draw(st.booleans()):
        (x0, x1), (y0, y1) = edges(xs), edges(ys)
        bbox = (x0, y0, x1, y1)
    return QuerySpec(
        device=draw(st.none() | st.sampled_from(DEVICES)),
        window=window,
        bbox=bbox,
        epsilon=draw(st.none() | st.sampled_from((5.0, 20.0))),
    )


def reference_rows(batches):
    """The in-memory model: canonical scan order is (device, bucket,
    append order); with time_bucket=100.0 buckets follow start.t."""
    rows = []  # (device, bucket, arrival, epsilon, record)
    for arrival, (device, epsilon, records) in enumerate(batches):
        for record in records:
            bucket = int(record.start.t // 100.0)
            rows.append((device, bucket, arrival, epsilon, record))
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def reference_partitions(batches):
    """Per-partition chunk model mirroring ``Store.append``'s grouping:
    ``(device, bucket) -> [(chunk_byte_length, [(record, epsilon), ...])]``
    in append order — the byte layout of every partition file."""
    partitions = {}
    for device, epsilon, records in batches:
        grouped = {}
        for record in records:
            grouped.setdefault(int(record.start.t // 100.0), []).append(record)
        for bucket in sorted(grouped):
            chunk = grouped[bucket]
            encoded = encode_chunk(chunk, epsilon)
            partitions.setdefault((device, bucket), []).append(
                (len(encoded), [(record, epsilon) for record in chunk])
            )
    return partitions


def expected_query_dicts(partitions, override_key=None, override_rows=None):
    """The full-store query result implied by the partition model, with one
    partition's rows optionally replaced (the crash-clamped prefix)."""
    expected = []
    for key in sorted(partitions):
        if key == override_key:
            rows = override_rows
        else:
            rows = [row for _, chunk_rows in partitions[key] for row in chunk_rows]
        expected.extend(
            {"device": key[0], "epsilon": epsilon, "segment": record.to_dict()}
            for record, epsilon in rows
        )
    return expected


class TestStoreProperties:
    @settings(**COMMON_SETTINGS)
    @given(batches=append_batches(), spec=query_specs())
    def test_query_matches_in_memory_reference(self, tmp_path_factory, batches, spec):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)

        expected = [
            {"device": device, "epsilon": epsilon, "segment": record.to_dict()}
            for device, _bucket, _arrival, epsilon, record in reference_rows(batches)
            if spec.matches(device, epsilon, record)
        ]
        result = store.query(spec)
        assert [stored.to_dict() for stored in result.segments] == expected
        assert result.partitions_scanned <= result.partitions_total

    @settings(**COMMON_SETTINGS)
    @given(batches=append_batches(), spec=query_specs())
    def test_pruned_scan_is_byte_identical_to_full_scan(
        self, tmp_path_factory, batches, spec
    ):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)

        pruned = store.query(spec)
        full = store.query(spec, full_scan=True)
        assert full.partitions_scanned == full.partitions_total
        assert pruned.partitions_scanned <= full.partitions_scanned
        assert json.dumps([s.to_dict() for s in pruned.segments]) == json.dumps(
            [s.to_dict() for s in full.segments]
        )

    @settings(**COMMON_SETTINGS)
    @given(batches=append_batches())
    def test_reopen_preserves_query_results(self, tmp_path_factory, batches):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)
        before = [s.to_dict() for s in store.query().segments]

        reopened = open_store(root / "segments")
        assert [s.to_dict() for s in reopened.query().segments] == before
        assert reopened.n_segments == store.n_segments

    @settings(**COMMON_SETTINGS)
    @given(batches=append_batches(), data=st.data())
    def test_crash_at_arbitrary_offset_recovers_committed_prefix(
        self, tmp_path_factory, batches, data
    ):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)
        store.close()
        partitions = reference_partitions(batches)
        assume(partitions)

        target = data.draw(st.sampled_from(sorted(partitions)), label="partition")
        chunks = partitions[target]
        total_bytes = sum(length for length, _ in chunks)
        path = (
            root
            / "segments"
            / DEVICES_DIR
            / encode_device_dir(target[0])
            / partition_data_name(target[1])
        )
        if data.draw(st.booleans(), label="truncate"):
            # Crash mid-append: the file ends at an arbitrary byte offset.
            offset = data.draw(
                st.integers(min_value=0, max_value=total_bytes - 1), label="offset"
            )
            with open(path, "r+b") as handle:
                handle.truncate(offset)
            committed = []
            boundary = 0
            boundaries = {0}
            for length, chunk_rows in chunks:
                if boundary + length <= offset:
                    committed.extend(chunk_rows)
                boundary += length
                boundaries.add(boundary)
            expect_damage = offset not in boundaries
        else:
            # Crash mid-append of a *new* chunk: a torn tail of junk bytes
            # (never a valid header — it starts with a NUL) after every
            # committed chunk.
            garbage = b"\x00" + data.draw(
                st.binary(min_size=0, max_size=40), label="garbage"
            )
            with open(path, "ab") as handle:
                handle.write(garbage)
            committed = [row for _, chunk_rows in chunks for row in chunk_rows]
            expect_damage = True

        reopened = open_store(root / "segments")
        assert reopened.recovery.damaged == (1 if expect_damage else 0)
        expected = expected_query_dicts(
            partitions, override_key=target, override_rows=committed
        )
        assert [s.to_dict() for s in reopened.query().segments] == expected
        assert reopened.n_segments == len(expected)
        # The repair was physical: on disk only the committed prefix remains,
        # so the next open is clean.
        clean = open_store(root / "segments")
        assert clean.recovery.damaged == 0
        assert [s.to_dict() for s in clean.query().segments] == expected

    @settings(**COMMON_SETTINGS)
    @given(batches=append_batches(), spec=query_specs())
    def test_compaction_preserves_query_results_byte_for_byte(
        self, tmp_path_factory, batches, spec
    ):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)
        before = json.dumps([s.to_dict() for s in store.query(spec).segments])
        segments_before = store.n_segments

        report = store.compact(min_chunks=1)
        assert all(item.chunks_after <= 1 for item in report.compacted)
        assert store.n_segments == segments_before
        assert json.dumps([s.to_dict() for s in store.query(spec).segments]) == before
        store.close()

        reopened = open_store(root / "segments")
        assert reopened.recovery.damaged == 0
        assert (
            json.dumps([s.to_dict() for s in reopened.query(spec).segments]) == before
        )

    @settings(**COMMON_SETTINGS)
    @given(
        batches=append_batches(),
        spec=query_specs(),
        width=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        step=st.none() | st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    )
    def test_aggregate_pushdown_equals_row_scan(
        self, tmp_path_factory, batches, spec, width, step
    ):
        root = tmp_path_factory.mktemp("store")
        store = open_store(root / "segments", time_bucket=100.0)
        for device, epsilon, records in batches:
            store.append(device, records, epsilon=epsilon)

        pushed = store.window_aggregates(spec, width=width, step=step)
        scanned = store.window_aggregates(spec, width=width, step=step, pushdown=False)
        assert scanned.partitions_pushdown == 0
        assert len(pushed.windows) == len(scanned.windows)
        for via_sidecar, via_rows in zip(pushed.windows, scanned.windows):
            assert via_sidecar.t_start == via_rows.t_start
            assert via_sidecar.t_end == via_rows.t_end
            assert via_sidecar.segments == via_rows.segments
            assert via_sidecar.points == via_rows.points
            assert via_sidecar.devices == via_rows.devices
            assert via_sidecar.device_ids == via_rows.device_ids
            assert math.isclose(
                via_sidecar.total_length,
                via_rows.total_length,
                rel_tol=1e-9,
                abs_tol=1e-6,
            )

    @settings(**COMMON_SETTINGS)
    @given(
        rows=st.lists(
            st.tuples(segment_records(), st.sampled_from((5.0, 20.0))), max_size=8
        ),
        device=st.sampled_from(DEVICES),
        data=st.data(),
    )
    def test_mask_agrees_with_matches_row_by_row(self, rows, device, data):
        spec = data.draw(edge_query_specs([record for record, _ in rows]))
        (columns,) = decode_columns(encode_chunk_rows(rows))
        mask = spec.mask(device, columns)
        assert mask.dtype == bool and mask.shape == (len(rows),)
        assert mask.tolist() == [
            spec.matches(device, epsilon, record) for record, epsilon in rows
        ]
