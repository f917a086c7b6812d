"""repro — One-Pass Error Bounded Trajectory Simplification (OPERB / OPERB-A).

A from-scratch Python reproduction of Lin et al., *One-Pass Error Bounded
Trajectory Simplification*, PVLDB 10(7), 2017, together with every baseline
and substrate the paper's evaluation depends on: the Douglas–Peucker family,
open-window algorithms, BQS/FBQS, trajectory containers and I/O, synthetic
GPS workload generators, quality metrics and an experiment harness that
regenerates every table and figure of the paper's Section 6.

Quick start
-----------
Every algorithm is described by an :class:`~repro.api.AlgorithmDescriptor`
in one registry, and the :class:`~repro.api.Simplifier` session facade
routes batch, streaming and fleet workloads through it:

>>> from repro import Simplifier, evaluate, generate_trajectory
>>> trajectory = generate_trajectory("sercar", 5_000, seed=7)
>>> session = Simplifier("operb", epsilon=40.0)
>>> compressed = session.run(trajectory)                      # batch
>>> evaluate(trajectory, compressed, epsilon=40.0).error_bound_satisfied
True

Streaming (one fix at a time, as on a GPS device) and fleet-scale execution
use the same session:

>>> with session.open_stream() as stream:
...     segments = stream.feed(trajectory)      # push() also works per-fix
...     representation = stream.result()
>>> fleet_result = session.run_many([trajectory] * 8, workers=4)
>>> len(fleet_result.successful())
8

``repro.api.register_algorithm`` adds new algorithms to the same registry,
making them available to the CLI, the experiment harness and the stream
hub at once.  :class:`~repro.api.Simplifier` is the only entry point.
"""

from ._version import __version__
from .algorithms import (
    bqs,
    dead_reckoning,
    douglas_peucker,
    douglas_peucker_sed,
    fbqs,
    opw,
    opw_tr,
    uniform_sampling,
)
from .api import (
    AlgorithmDescriptor,
    FleetError,
    FleetResult,
    Simplifier,
    StreamSession,
    get_descriptor,
    list_descriptors,
    register_algorithm,
)
from .core import (
    OPERBASimplifier,
    OPERBSimplifier,
    OperbAConfig,
    OperbConfig,
    operb,
    operb_a,
    raw_operb,
    raw_operb_a,
)
from .datasets import (
    GEOLIFE,
    PROFILES,
    SERCAR,
    TAXI,
    TRUCK,
    DatasetProfile,
    generate_dataset,
    generate_trajectory,
    get_profile,
    load_geolife,
)
from .exceptions import (
    CheckpointError,
    DatasetError,
    ExecutionError,
    ExperimentError,
    FleetExecutionError,
    InvalidParameterError,
    InvalidTrajectoryError,
    ReproError,
    SimplificationError,
    UnknownAlgorithmError,
)
from .geometry import DirectedSegment, LocalProjection, Point
from .metrics import (
    EvaluationReport,
    average_error,
    check_error_bound,
    compression_ratio,
    evaluate,
    evaluate_fleet,
    fleet_compression_ratio,
    max_error,
    segment_size_distribution,
)
from .streaming import StreamHub, restore_hub, save_checkpoint
from .trajectory import PiecewiseRepresentation, PointBlock, SegmentRecord, Trajectory

__all__ = [
    "AlgorithmDescriptor",
    "CheckpointError",
    "DatasetError",
    "ExecutionError",
    "DatasetProfile",
    "DirectedSegment",
    "EvaluationReport",
    "ExperimentError",
    "FleetError",
    "FleetExecutionError",
    "FleetResult",
    "GEOLIFE",
    "InvalidParameterError",
    "InvalidTrajectoryError",
    "LocalProjection",
    "OPERBASimplifier",
    "OPERBSimplifier",
    "OperbAConfig",
    "OperbConfig",
    "PROFILES",
    "PiecewiseRepresentation",
    "Point",
    "PointBlock",
    "ReproError",
    "SERCAR",
    "SegmentRecord",
    "SimplificationError",
    "Simplifier",
    "StreamHub",
    "StreamSession",
    "TAXI",
    "TRUCK",
    "Trajectory",
    "UnknownAlgorithmError",
    "__version__",
    "average_error",
    "bqs",
    "check_error_bound",
    "compression_ratio",
    "dead_reckoning",
    "douglas_peucker",
    "douglas_peucker_sed",
    "evaluate",
    "evaluate_fleet",
    "fbqs",
    "fleet_compression_ratio",
    "generate_dataset",
    "generate_trajectory",
    "get_descriptor",
    "get_profile",
    "list_descriptors",
    "load_geolife",
    "max_error",
    "operb",
    "operb_a",
    "opw",
    "opw_tr",
    "raw_operb",
    "raw_operb_a",
    "register_algorithm",
    "restore_hub",
    "save_checkpoint",
    "segment_size_distribution",
    "uniform_sampling",
]
