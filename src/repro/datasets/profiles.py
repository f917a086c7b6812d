"""Dataset profiles mirroring the paper's Table 1.

The paper evaluates on four GPS corpora — Taxi, Truck, SerCar and GeoLife —
three of which are proprietary fleet datasets and none of which can be
downloaded in this offline environment.  Each profile below captures the
workload characteristics Table 1 and Section 6.1 report (sampling rate,
typical trajectory length, mobility style), and the generators in
:mod:`repro.datasets.generator` synthesise trajectories with those
characteristics.  Users with the real GeoLife corpus can bypass the synthetic
generator via :mod:`repro.datasets.geolife`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import UnknownProfileError

__all__ = ["DatasetProfile", "TAXI", "TRUCK", "SERCAR", "GEOLIFE", "PROFILES", "get_profile"]


@dataclass(frozen=True, slots=True)
class DatasetProfile:
    """Workload characteristics of one of the paper's datasets.

    Attributes
    ----------
    name:
        Dataset name as used in the paper.
    mobility:
        ``"urban"`` (grid road network with frequent crossroads),
        ``"highway"`` (long inter-city corridors with sparse turns) or
        ``"mixed"`` (alternating walking and driving, as in GeoLife).
    sampling_interval:
        ``(low, high)`` range of seconds between consecutive samples.
    speed_range:
        ``(low, high)`` range of speeds in metres/second.
    noise_std:
        Standard deviation of the added GPS noise in metres.
    paper_trajectories:
        Number of trajectories reported in Table 1.
    paper_points_per_trajectory:
        Average points per trajectory reported in Table 1 (thousands).
    paper_total_points:
        Total points reported in Table 1 (human-readable string).
    """

    name: str
    mobility: str
    sampling_interval: tuple[float, float]
    speed_range: tuple[float, float]
    noise_std: float
    paper_trajectories: int
    paper_points_per_trajectory: float
    paper_total_points: str
    description: str = ""


TAXI = DatasetProfile(
    name="Taxi",
    mobility="urban",
    sampling_interval=(60.0, 60.0),
    speed_range=(4.0, 14.0),
    noise_std=5.0,
    paper_trajectories=12_727,
    paper_points_per_trajectory=39.1,
    paper_total_points="498M",
    description="Beijing taxis, one point per 60 s, Nov. 2010",
)

TRUCK = DatasetProfile(
    name="Truck",
    mobility="highway",
    sampling_interval=(1.0, 60.0),
    speed_range=(8.0, 25.0),
    noise_std=5.0,
    paper_trajectories=10_368,
    paper_points_per_trajectory=71.9,
    paper_total_points="746M",
    description="Chinese long-haul trucks, 1-60 s sampling, Mar.-Oct. 2015",
)

SERCAR = DatasetProfile(
    name="SerCar",
    mobility="urban",
    sampling_interval=(3.0, 5.0),
    speed_range=(3.0, 17.0),
    noise_std=4.0,
    paper_trajectories=11_000,
    paper_points_per_trajectory=119.1,
    paper_total_points="1.31G",
    description="Rental service cars, 3-5 s sampling, Apr.-Nov. 2015",
)

GEOLIFE = DatasetProfile(
    name="GeoLife",
    mobility="mixed",
    sampling_interval=(1.0, 5.0),
    speed_range=(1.0, 15.0),
    noise_std=3.0,
    paper_trajectories=182,
    paper_points_per_trajectory=132.8,
    paper_total_points="24.2M",
    description="GeoLife users (walking/driving mix), 1-5 s sampling, 2007-2011",
)

PROFILES: dict[str, DatasetProfile] = {
    profile.name.lower(): profile for profile in (TAXI, TRUCK, SERCAR, GEOLIFE)
}
"""All four paper datasets keyed by lower-case name."""


def get_profile(name: str) -> DatasetProfile:
    """Look up a dataset profile by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in PROFILES:
        available = ", ".join(sorted(PROFILES))
        raise UnknownProfileError(f"unknown dataset profile {name!r}; available: {available}")
    return PROFILES[key]
