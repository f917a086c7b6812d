"""GeoLife pipeline: load .plt files, compress them, write compressed CSVs.

If you have the public GeoLife corpus extracted locally, point this script at
its ``Data`` directory::

    python examples/geolife_pipeline.py /path/to/Geolife/Data

Without an argument the script fabricates a tiny PLT corpus on the fly (same
format, synthetic coordinates) so the pipeline can be demonstrated offline —
which is also how this repository's experiments substitute for the paper's
proprietary datasets.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import Simplifier, evaluate
from repro.datasets import generate_trajectory, geolife_available, load_geolife
from repro.geometry import LocalProjection
from repro.trajectory import write_piecewise_csv

EPSILON = 25.0


def fabricate_corpus(root: Path) -> Path:
    """Write a small synthetic corpus in the GeoLife directory layout."""
    projection = LocalProjection.for_origin(39.9842, 116.3185)
    for user, seed in (("000", 1), ("001", 2)):
        directory = root / user / "Trajectory"
        directory.mkdir(parents=True, exist_ok=True)
        trajectory = generate_trajectory("geolife", 2_000, seed=seed)
        lats, lons = projection.arrays_to_latlon(trajectory.xs, trajectory.ys)
        lines = [
            "Geolife trajectory",
            "WGS 84",
            "Altitude is in Feet",
            "Reserved 3",
            "0,2,255,My Track,0,0,2,8421376",
            "0",
        ]
        for lat, lon, t in zip(lats, lons, trajectory.ts):
            days = 39744.0 + t / 86400.0
            lines.append(f"{lat:.6f},{lon:.6f},0,120,{days:.7f},2008-10-23,02:53:04")
        (directory / f"synthetic_{user}.plt").write_text("\n".join(lines))
    return root


def main() -> None:
    if len(sys.argv) > 1:
        root = Path(sys.argv[1])
    else:
        root = fabricate_corpus(Path(tempfile.mkdtemp(prefix="geolife-demo-")))
        print(f"no corpus given; fabricated a demo corpus at {root}")

    if not geolife_available(root):
        print(f"{root} does not look like a GeoLife Data directory")
        sys.exit(1)

    output_dir = Path("geolife_compressed")
    output_dir.mkdir(exist_ok=True)

    trajectories = load_geolife(root, max_trajectories=10, min_points=50)
    print(f"loaded {len(trajectories)} trajectories")
    total_points = 0
    total_segments = 0
    simplifier = Simplifier("operb-a", EPSILON)
    for trajectory in trajectories:
        compressed = simplifier.run(trajectory)
        report = evaluate(trajectory, compressed, EPSILON)
        total_points += len(trajectory)
        total_segments += compressed.n_segments
        name = trajectory.trajectory_id.replace("/", "_") or "trajectory"
        write_piecewise_csv(compressed, output_dir / f"{name}.csv")
        print(
            f"  {trajectory.trajectory_id}: {len(trajectory)} -> {compressed.n_segments} segments"
            f" (avg error {report.average_error:.2f} m, bound "
            f"{'ok' if report.error_bound_satisfied else 'VIOLATED'})"
        )
    if total_points:
        print(
            f"\nfleet compression ratio: {total_segments / total_points:.4f} "
            f"({total_segments} segments for {total_points} points)"
        )
        print(f"compressed polylines written to {output_dir}/")


if __name__ == "__main__":
    main()
