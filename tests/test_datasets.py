"""Unit tests for dataset profiles, generators, noise injection and GeoLife loading."""

from __future__ import annotations

import numpy as np
import pytest

from repro import InvalidParameterError, Trajectory
from repro.datasets import (
    GEOLIFE,
    PROFILES,
    SERCAR,
    TAXI,
    TRUCK,
    GridRoadNetwork,
    add_gps_noise,
    correlated_random_walk,
    dataset_statistics,
    generate_dataset,
    generate_trajectory,
    geolife_available,
    get_profile,
    inject_duplicates,
    inject_out_of_order,
    inject_outliers,
    load_geolife,
    load_geolife_user,
    road_network_trajectory,
    straight_line_trajectory,
    waypoint_trajectory,
)
from repro.datasets.noise import inject_dropouts
from repro.exceptions import DatasetError, ReproError, UnknownProfileError

PLT_SAMPLE = """Geolife trajectory
WGS 84
Altitude is in Feet
Reserved 3
0,2,255,My Track,0,0,2,8421376
0
39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04
39.984683,116.31845,0,492,39744.1202546296,2008-10-23,02:53:10
39.984686,116.318417,0,492,39744.1203240741,2008-10-23,02:53:16
"""


class TestProfiles:
    def test_four_paper_profiles_exist(self):
        assert set(PROFILES) == {"taxi", "truck", "sercar", "geolife"}

    def test_lookup_case_insensitive(self):
        assert get_profile("TAXI") is TAXI
        assert get_profile("GeoLife") is GEOLIFE

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("buses")

    def test_unknown_profile_is_a_dataset_error(self):
        with pytest.raises(UnknownProfileError, match="available: geolife") as excinfo:
            get_profile("buses")
        assert isinstance(excinfo.value, DatasetError)
        assert isinstance(excinfo.value, ReproError)

    def test_generators_reject_unknown_profiles(self):
        with pytest.raises(UnknownProfileError, match="'warp'"):
            generate_trajectory("warp", 10, seed=1)
        with pytest.raises(UnknownProfileError, match="'warp'"):
            generate_dataset("warp", n_trajectories=1, points_per_trajectory=10, seed=1)

    def test_table1_figures_recorded(self):
        assert TAXI.paper_trajectories == 12_727
        assert TRUCK.paper_total_points == "746M"
        assert SERCAR.paper_points_per_trajectory == pytest.approx(119.1)
        assert GEOLIFE.sampling_interval == (1.0, 5.0)


class TestSyntheticGenerators:
    def test_random_walk_reproducible(self):
        a = correlated_random_walk(200, seed=5)
        b = correlated_random_walk(200, seed=5)
        assert a == b

    def test_random_walk_length_and_time(self):
        t = correlated_random_walk(150, sampling_interval=2.0, seed=1)
        assert len(t) == 150
        assert t.duration() == pytest.approx(2.0 * 149, rel=1e-9)

    def test_random_walk_validation(self):
        with pytest.raises(InvalidParameterError):
            correlated_random_walk(0)
        with pytest.raises(InvalidParameterError):
            correlated_random_walk(10, speed_range=(0.0, 5.0))

    def test_waypoint_trajectory_does_not_sample_corners(self):
        t = waypoint_trajectory(
            [(0.0, 0.0), (1000.0, 0.0), (1000.0, 1000.0)],
            sampling_interval=7.0,
            speed_range=(10.0, 10.0),
            noise_std=0.0,
            seed=3,
        )
        # No sample should fall exactly on the corner apex (1000, 0).
        distances = np.hypot(t.xs - 1000.0, t.ys - 0.0)
        assert distances.min() > 1.0
        assert len(t) > 10

    def test_waypoint_requires_two_waypoints(self):
        with pytest.raises(InvalidParameterError):
            waypoint_trajectory([(0.0, 0.0)])

    def test_straight_line_trajectory(self):
        t = straight_line_trajectory(10, spacing=5.0)
        assert t.path_length() == pytest.approx(45.0)


class TestRoadNetwork:
    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            GridRoadNetwork(rows=1, cols=5)
        with pytest.raises(InvalidParameterError):
            GridRoadNetwork(block_size=0.0)

    def test_node_positions_scale_with_block_size(self):
        network = GridRoadNetwork(rows=4, cols=4, block_size=250.0)
        assert network.node_position((2, 3)) == (750.0, 500.0)

    def test_random_route_stays_on_grid(self):
        network = GridRoadNetwork(rows=5, cols=5, block_size=100.0)
        rng = np.random.default_rng(0)
        route = network.random_route(rng, hops=30)
        assert len(route) == 31
        for x, y in route:
            assert 0.0 <= x <= 400.0
            assert 0.0 <= y <= 400.0

    def test_road_network_trajectory_size_and_noise(self):
        t = road_network_trajectory(500, sampling_interval=5.0, noise_std=2.0, seed=4)
        assert len(t) == 500
        assert np.all(np.diff(t.ts) > 0.0)


class TestProfileDrivenGeneration:
    @pytest.mark.parametrize("profile", ["taxi", "truck", "sercar", "geolife"])
    def test_generate_trajectory_matches_profile_sampling(self, profile):
        t = generate_trajectory(profile, 600, seed=9)
        assert len(t) == 600
        low, high = get_profile(profile).sampling_interval
        mean_interval = t.mean_sampling_interval()
        # Dropout injection can stretch the mean interval somewhat.
        assert low * 0.8 <= mean_interval <= high * 2.5

    def test_generate_dataset_is_reproducible(self):
        a = generate_dataset("truck", n_trajectories=2, points_per_trajectory=300, seed=11)
        b = generate_dataset("truck", n_trajectories=2, points_per_trajectory=300, seed=11)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[0] != a[1]

    def test_dataset_statistics(self):
        fleet = generate_dataset("geolife", n_trajectories=2, points_per_trajectory=300, seed=1)
        stats = dataset_statistics(fleet)
        assert stats["trajectories"] == 2
        assert stats["total_points"] == 600
        assert stats["mean_sampling_interval"] > 0.0

    def test_dataset_statistics_empty(self):
        assert dataset_statistics([])["trajectories"] == 0


class TestNoiseInjection:
    def test_add_gps_noise_changes_coordinates(self, straight_line):
        noisy = add_gps_noise(straight_line, noise_std=3.0, seed=1)
        assert not np.allclose(noisy.xs, straight_line.xs)
        np.testing.assert_allclose(noisy.ts, straight_line.ts)

    def test_inject_duplicates_increases_length(self, straight_line):
        dup = inject_duplicates(straight_line, fraction=0.1, seed=1)
        assert len(dup) > len(straight_line)

    def test_inject_out_of_order_breaks_monotonicity(self, straight_line):
        shuffled = inject_out_of_order(straight_line, swaps=5, seed=1)
        assert np.any(np.diff(shuffled.ts) < 0.0)

    def test_inject_outliers_moves_points(self, straight_line):
        spiky = inject_outliers(straight_line, fraction=0.05, magnitude=500.0, seed=1)
        displacement = np.hypot(spiky.xs - straight_line.xs, spiky.ys - straight_line.ys)
        assert displacement.max() == pytest.approx(500.0)

    def test_inject_dropouts_removes_points(self, straight_line):
        dropped = inject_dropouts(straight_line, rate=0.1, seed=1)
        assert len(dropped) < len(straight_line)
        assert dropped[0] == straight_line[0]

    def test_parameter_validation(self, straight_line):
        with pytest.raises(InvalidParameterError):
            add_gps_noise(straight_line, noise_std=-1.0)
        with pytest.raises(InvalidParameterError):
            inject_duplicates(straight_line, fraction=2.0)
        with pytest.raises(InvalidParameterError):
            inject_dropouts(straight_line, rate=-0.5)


class TestGeoLifeLoader:
    def _make_corpus(self, tmp_path):
        user_dir = tmp_path / "000" / "Trajectory"
        user_dir.mkdir(parents=True)
        for name in ("20081023025304.plt", "20081024020959.plt"):
            (user_dir / name).write_text(PLT_SAMPLE)
        return tmp_path

    def test_geolife_available(self, tmp_path):
        assert not geolife_available(tmp_path)
        root = self._make_corpus(tmp_path)
        assert geolife_available(root)

    def test_load_geolife_user(self, tmp_path):
        root = self._make_corpus(tmp_path)
        trajectories = load_geolife_user(root, "000")
        assert len(trajectories) == 2
        assert all(isinstance(t, Trajectory) for t in trajectories)

    def test_load_geolife_with_limits(self, tmp_path):
        root = self._make_corpus(tmp_path)
        assert len(load_geolife(root, min_points=1, max_trajectories=1)) == 1
        assert load_geolife(root, min_points=10) == []

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_geolife_user(tmp_path, "999")
        with pytest.raises(DatasetError):
            list(load_geolife(tmp_path / "missing"))
