"""A grid road-network mobility simulator.

The paper's Taxi and SerCar datasets are urban fleets whose movement is
constrained by road networks: long straight stretches punctuated by sharp
turns at crossroads.  That turn structure is exactly what produces the
anomalous line segments OPERB-A's patch points remove (Section 5, Figure 9),
so a faithful workload generator must reproduce it.

:class:`GridRoadNetwork` builds a rectangular street grid as a ``networkx``
graph; :func:`road_network_trajectory` drives a simulated vehicle along
shortest-path routes between random intersections, samples its position at
the requested rate and adds GPS noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from ..exceptions import InvalidParameterError
from ..trajectory.model import Trajectory
from .synthetic import waypoint_trajectory

__all__ = ["GridRoadNetwork", "road_network_trajectory"]


@dataclass
class GridRoadNetwork:
    """A rectangular street grid.

    Attributes
    ----------
    rows, cols:
        Number of intersections along each axis.
    block_size:
        Edge length (metres) of one city block.
    """

    rows: int = 12
    cols: int = 12
    block_size: float = 400.0

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise InvalidParameterError("the grid needs at least 2x2 intersections")
        if self.block_size <= 0.0:
            raise InvalidParameterError("block_size must be positive")
        self._graph = nx.grid_2d_graph(self.rows, self.cols)

    @property
    def graph(self) -> nx.Graph:
        """The underlying ``networkx`` graph (nodes are ``(row, col)`` tuples)."""
        return self._graph

    def node_position(self, node: tuple[int, int]) -> tuple[float, float]:
        """Planar position (metres) of an intersection."""
        row, col = node
        return (col * self.block_size, row * self.block_size)

    def random_node(self, rng: np.random.Generator) -> tuple[int, int]:
        """A uniformly random intersection."""
        return (int(rng.integers(0, self.rows)), int(rng.integers(0, self.cols)))

    def random_route(
        self,
        rng: np.random.Generator,
        *,
        hops: int = 20,
        straight_bias: float = 0.7,
        start: tuple[int, int] | None = None,
    ) -> list[tuple[float, float]]:
        """Waypoints of a turn-rich route (biased random walk on the grid).

        Shortest paths on a grid contain very few turns, which is unlike the
        behaviour of taxis and service cars that criss-cross a city all day.
        The walk therefore continues straight with probability
        ``straight_bias`` and otherwise turns at the intersection; it never
        immediately backtracks unless it reaches the edge of the grid.
        """
        node = start if start is not None else self.random_node(rng)
        route = [node]
        previous: tuple[int, int] | None = None
        for _ in range(hops):
            neighbours = list(self._graph.neighbors(node))
            if previous is not None and len(neighbours) > 1 and previous in neighbours:
                neighbours.remove(previous)
            straight: tuple[int, int] | None = None
            if previous is not None:
                candidate = (2 * node[0] - previous[0], 2 * node[1] - previous[1])
                if candidate in neighbours:
                    straight = candidate
            if straight is not None and rng.random() < straight_bias:
                chosen = straight
            else:
                chosen = neighbours[int(rng.integers(0, len(neighbours)))]
            previous = node
            node = chosen
            route.append(node)
        return [self.node_position(n) for n in route]


def road_network_trajectory(
    n_points: int,
    *,
    network: GridRoadNetwork | None = None,
    sampling_interval: float | tuple[float, float] = 5.0,
    speed_range: tuple[float, float] = (4.0, 15.0),
    noise_std: float = 4.0,
    seed: int | np.random.Generator | None = None,
    trajectory_id: str = "",
) -> Trajectory:
    """Simulate an urban vehicle trajectory on a street grid.

    The vehicle repeatedly picks a random destination, drives the shortest
    path to it along the grid, and continues with a new destination until
    ``n_points`` samples have been collected.
    """
    if n_points < 2:
        raise InvalidParameterError("n_points must be at least 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    network = network or GridRoadNetwork()

    pieces: list[Trajectory] = []
    produced = 0
    clock_offset = 0.0
    last_node: tuple[int, int] | None = None

    if isinstance(sampling_interval, tuple):
        mean_interval = 0.5 * (sampling_interval[0] + sampling_interval[1])
    else:
        mean_interval = float(sampling_interval)
    mean_speed = 0.5 * (speed_range[0] + speed_range[1])
    points_per_hop = max(network.block_size / max(mean_speed * mean_interval, 1e-9), 0.2)

    while produced < n_points:
        hops = int(math.ceil((n_points - produced) / points_per_hop)) + 4
        waypoints = network.random_route(rng, hops=min(hops, 4 * n_points), start=last_node)
        piece = waypoint_trajectory(
            waypoints,
            sampling_interval=sampling_interval,
            speed_range=speed_range,
            noise_std=0.0,
            n_points=n_points - produced,
            seed=rng,
        )
        if len(piece) == 0:
            continue
        shifted = Trajectory(
            piece.xs,
            piece.ys,
            piece.ts + clock_offset,
            trajectory_id=trajectory_id,
        )
        pieces.append(shifted)
        produced += len(shifted)
        clock_offset = float(shifted.ts[-1]) + (
            sampling_interval[0]
            if isinstance(sampling_interval, tuple)
            else sampling_interval
        )
        last_node = (
            int(round(piece.ys[-1] / network.block_size)),
            int(round(piece.xs[-1] / network.block_size)),
        )
        last_node = (
            min(max(last_node[0], 0), network.rows - 1),
            min(max(last_node[1], 0), network.cols - 1),
        )

    xs = np.concatenate([piece.xs for piece in pieces])[:n_points]
    ys = np.concatenate([piece.ys for piece in pieces])[:n_points]
    ts = np.concatenate([piece.ts for piece in pieces])[:n_points]
    if noise_std > 0.0:
        xs = xs + rng.normal(0.0, noise_std, size=xs.shape[0])
        ys = ys + rng.normal(0.0, noise_std, size=ys.shape[0])
    return Trajectory(xs, ys, ts, trajectory_id=trajectory_id)
