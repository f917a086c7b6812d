"""Built-in invariant rules (importing this package registers them all)."""

from __future__ import annotations

from .capabilities import CapabilityConsistencyRule
from .checkpoint import CheckpointDriftRule
from .determinism import DeterminismRule
from .ownership import ActorOwnershipRule
from .process_creation import ProcessCreationRule
from .process_safety import ProcessSafetyRule
from .wire import WireCodecRule

__all__ = [
    "CheckpointDriftRule",
    "CapabilityConsistencyRule",
    "DeterminismRule",
    "ActorOwnershipRule",
    "ProcessSafetyRule",
    "ProcessCreationRule",
    "WireCodecRule",
]
