"""``repro-traj`` — command-line interface to the OPERB reproduction.

Sub-commands
------------
``algorithms``
    Print the capability table of every registered algorithm (streaming?,
    one-pass?, error metric, accepted options).
``compress``
    Simplify one trajectory file (CSV or GeoLife PLT) with a chosen algorithm.
``evaluate``
    Compare several algorithms on one trajectory file.
``generate``
    Synthesise a dataset following one of the paper's profiles.
``experiment``
    Re-run one (or all) of the paper's tables/figures.
``serve-replay``
    Replay a multi-device point log through the streaming hub with periodic
    checkpoints; ``--resume`` continues an interrupted replay byte-identically,
    ``--store`` persists the emitted segments into a queryable segment store,
    ``--epsilons`` serves a whole epsilon pyramid (multiple resolutions) in
    the same single pass.
``query``
    Query a segment store (``--device``, ``--window``, ``--bbox``,
    ``--epsilon``, or pyramid selectors ``--level``/``--max-deviation``)
    with zone-map data skipping, or compute sliding-window aggregates over
    the matches (served from zone-map sidecars alone when the windows fully
    cover the partitions).
``compact``
    Rewrite a store's multi-chunk partitions into single-chunk form —
    byte-identical query results, fewer chunk headers to decode — and
    repair any crash-salvaged partitions.
``lint``
    Run the AST-based invariant linter (:mod:`repro.analysis`) over the
    source tree, gated on the committed ``analysis_baseline.json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .._version import __version__
from ..exceptions import ReproError
from . import commands

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-traj",
        description="One-pass error bounded trajectory simplification (OPERB/OPERB-A)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "algorithms", help="print the algorithm capability table"
    )
    list_parser.add_argument(
        "--names", action="store_true", help="print bare algorithm names only"
    )
    list_parser.set_defaults(handler=commands.cmd_list_algorithms)

    compress = subparsers.add_parser("compress", help="simplify one trajectory file")
    compress.add_argument("input", help="input trajectory (.csv with x,y,t columns or .plt)")
    compress.add_argument("--epsilon", type=float, default=40.0, help="error bound in metres")
    compress.add_argument("--algorithm", default="operb", help="algorithm name (see 'algorithms')")
    compress.add_argument("--output", help="write the retained vertices to this CSV file")
    compress.set_defaults(handler=commands.cmd_compress)

    evaluate = subparsers.add_parser("evaluate", help="compare algorithms on one trajectory file")
    evaluate.add_argument("input", help="input trajectory (.csv or .plt)")
    evaluate.add_argument("--epsilon", type=float, default=40.0, help="error bound in metres")
    evaluate.add_argument(
        "--algorithms", nargs="*", default=None, help="algorithms to compare (default: paper set)"
    )
    evaluate.add_argument("--json", help="also write the reports to this JSON file")
    evaluate.set_defaults(handler=commands.cmd_evaluate)

    generate = subparsers.add_parser("generate", help="synthesise a dataset")
    generate.add_argument("profile", help="dataset profile: taxi, truck, sercar or geolife")
    generate.add_argument("output", help="output directory (CSV per trajectory) or .jsonl file")
    generate.add_argument("--trajectories", type=int, default=10, help="number of trajectories")
    generate.add_argument("--points", type=int, default=5000, help="points per trajectory")
    generate.add_argument("--seed", type=int, default=2017, help="random seed")
    generate.set_defaults(handler=commands.cmd_generate)

    experiment = subparsers.add_parser("experiment", help="re-run paper experiments")
    experiment.add_argument(
        "--id",
        default="all",
        help="experiment id (table1, fig12 ... fig19-2) or 'all'",
    )
    experiment.add_argument("--trajectories", type=int, default=2, help="trajectories per dataset")
    experiment.add_argument("--points", type=int, default=2000, help="points per trajectory")
    experiment.add_argument("--seed", type=int, default=2017, help="random seed")
    experiment.add_argument("--markdown", help="write a markdown report to this path")
    experiment.set_defaults(handler=commands.cmd_experiment)

    serve = subparsers.add_parser(
        "serve-replay",
        help="replay a multi-device point log through the streaming hub",
    )
    serve.add_argument(
        "input",
        nargs="?",
        help="JSONL point log ({'device','x','y','t'} per line); "
        "omit when using --synthetic",
    )
    serve.add_argument(
        "--synthetic",
        metavar="PROFILE",
        help="generate the log instead: taxi, truck, sercar or geolife",
    )
    serve.add_argument("--devices", type=int, default=64, help="synthetic device count")
    serve.add_argument(
        "--points", type=int, default=200, help="synthetic points per device"
    )
    serve.add_argument("--seed", type=int, default=2017, help="synthetic log seed")
    serve.add_argument("--epsilon", type=float, default=40.0, help="error bound in metres")
    serve.add_argument(
        "--epsilons",
        type=float,
        nargs="+",
        default=None,
        metavar="EPS",
        help="strictly ascending epsilon ladder for single-pass multi-"
        "resolution serving (first value is the finest level and overrides "
        "--epsilon; with --store every level is persisted level-tagged)",
    )
    serve.add_argument(
        "--algorithm", default="operb", help="default algorithm for every device"
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="hub shard partitions (default 4; with --resume, re-shards the "
        "restored devices instead of keeping the checkpoint layout)",
    )
    serve.add_argument(
        "--backend",
        default="serial",
        choices=["serial", "thread", "node"],
        help="execution backend driving the hub shards (default serial)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the thread/node backends (default: CPU "
        "count, clamped to the shard count)",
    )
    serve.add_argument(
        "--block-size",
        type=int,
        default=4096,
        metavar="N",
        help="records per shipped ingest batch; shard workers regroup each "
        "batch into per-device SoA point blocks for the vectorized "
        "push_block path (default 4096; purely an execution knob — any "
        "value produces byte-identical output)",
    )
    serve.add_argument(
        "--checkpoint", metavar="PATH", help="write hub checkpoints to this JSON file"
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint every N replayed points (0: only at the end)",
    )
    serve.add_argument(
        "--resume",
        metavar="PATH",
        help="resume from this checkpoint (skips the already-ingested points)",
    )
    serve.add_argument(
        "--output", help="stream finalised segments to this CSV file"
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        help="persist finalised segments into the segment store at this "
        "directory (created when missing; query it with 'repro-traj query')",
    )
    serve.add_argument(
        "--time-bucket",
        type=float,
        default=None,
        metavar="SECONDS",
        help="partition width on the time axis when --store creates a new "
        "store (default 3600; an existing store keeps its own)",
    )
    serve.set_defaults(handler=commands.cmd_serve_replay)

    query = subparsers.add_parser(
        "query",
        help="query a segment store with zone-map data skipping",
    )
    query.add_argument("store", help="segment store directory (see serve-replay --store)")
    query.add_argument("--device", help="exact device id to match")
    query.add_argument(
        "--window",
        metavar="T0:T1",
        help="time window; matches segments whose time span intersects [T0, T1]",
    )
    query.add_argument(
        "--bbox",
        metavar="XMIN,YMIN,XMAX,YMAX",
        help="spatial bounding box; matches segments whose endpoint box "
        "intersects it",
    )
    query.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="match only segments simplified under exactly this error bound",
    )
    query.add_argument(
        "--level",
        type=int,
        default=None,
        metavar="K",
        help="match the K-th level of the store's epsilon ladder (0 = finest; "
        "mutually exclusive with --epsilon/--max-deviation)",
    )
    query.add_argument(
        "--max-deviation",
        type=float,
        default=None,
        metavar="SLA",
        help="deviation SLA: match the coarsest stored level whose epsilon "
        "does not exceed SLA (mutually exclusive with --epsilon/--level)",
    )
    query.add_argument(
        "--aggregate",
        metavar="WIDTH[:STEP]",
        help="instead of listing segments, compute sliding-window aggregates "
        "of the matches (window WIDTH, advancing by STEP; default tumbling)",
    )
    query.add_argument(
        "--full-scan",
        action="store_true",
        help="bypass zone-map pruning and read every partition (results are "
        "identical; use to audit or measure data skipping)",
    )
    query.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="segments to print in text output (default 10; 0 prints all)",
    )
    query.add_argument(
        "--json", action="store_true", help="emit the full result as JSON"
    )
    query.set_defaults(handler=commands.cmd_query)

    compact = subparsers.add_parser(
        "compact",
        help="compact a segment store's partitions (many chunks -> one)",
    )
    compact.add_argument(
        "store", help="segment store directory (see serve-replay --store)"
    )
    compact.add_argument("--device", help="compact only this device's partitions")
    compact.add_argument(
        "--min-chunks",
        type=int,
        default=2,
        metavar="N",
        help="leave healthy partitions with fewer than N chunks untouched "
        "(default 2; crash-damaged partitions are always repaired)",
    )
    compact.add_argument(
        "--json", action="store_true", help="emit the compaction report as JSON"
    )
    compact.set_defaults(handler=commands.cmd_compact)

    lint = subparsers.add_parser(
        "lint", help="run the invariant linter over the source tree"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only this rule (repeatable; default: all registered rules)",
    )
    lint.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="report format (default text)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline allowlist of tracked findings "
        "(default: analysis_baseline.json when present)",
    )
    lint.set_defaults(handler=commands.cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.handler(args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
