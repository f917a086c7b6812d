"""Line-simplification baselines (batch functions and streaming simplifiers).

Algorithms are looked up by name through :mod:`repro.api`.
"""

from .base import SimplificationFunction, StreamingSimplifier, validate_epsilon
from .bqs import BoundedQuadrantWindow, QuadrantBound, bqs
from .dead_reckoning import DeadReckoningSimplifier, dead_reckoning
from .douglas_peucker import douglas_peucker, douglas_peucker_sed, dp_retained_indices
from .fbqs import FBQSSimplifier, fbqs
from .opw import opw, opw_tr
from .uniform import uniform_sampling

__all__ = [
    "BoundedQuadrantWindow",
    "DeadReckoningSimplifier",
    "FBQSSimplifier",
    "QuadrantBound",
    "SimplificationFunction",
    "StreamingSimplifier",
    "bqs",
    "dead_reckoning",
    "douglas_peucker",
    "douglas_peucker_sed",
    "dp_retained_indices",
    "fbqs",
    "opw",
    "opw_tr",
    "uniform_sampling",
    "validate_epsilon",
]
