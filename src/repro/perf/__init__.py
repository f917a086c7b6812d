"""Seeded traffic generators for benchmarks, tests, examples and the CLI.

:mod:`repro.perf.workloads` synthesises reproducible device fleets: the
paper's dataset profiles, an idle-heavy fleet for the block-ingest paths,
and round-robin interleaved multi-device point logs for the stream hub.
Timing lives outside the package, in ``benchmarks/`` (same-run ratio
guards) and ``fixbench/`` (the end-to-end benchmark).
"""
