"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so that callers can catch
everything raised by this package with a single ``except`` clause while still
being able to distinguish finer-grained failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidTrajectoryError",
    "InvalidParameterError",
    "SimplificationError",
    "DatasetError",
    "ExperimentError",
    "FleetExecutionError",
    "UnknownAlgorithmError",
    "UnknownProfileError",
    "CheckpointError",
    "ExecutionError",
    "StoreError",
    "WireFormatError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class InvalidTrajectoryError(ReproError, ValueError):
    """A trajectory violates a structural requirement.

    Raised, for example, when coordinate arrays have mismatched lengths,
    contain non-finite values, or timestamps are not monotonically
    non-decreasing where monotonicity is required.
    """


class InvalidParameterError(ReproError, ValueError):
    """A user-supplied parameter is outside its valid domain.

    Typical causes are a non-positive error bound ``zeta`` or an angle
    parameter outside ``[0, pi]``.
    """


class SimplificationError(ReproError, RuntimeError):
    """An algorithm reached an internally inconsistent state.

    This signals a bug in the library rather than bad user input; it should
    never be raised during normal operation.
    """


class DatasetError(ReproError):
    """A dataset could not be generated or loaded."""


class ExperimentError(ReproError):
    """An experiment definition or run failed."""


class FleetExecutionError(ReproError):
    """One or more trajectories of a fleet run failed to compress.

    Raised by the fleet executor when ``on_error="raise"``; the individual
    failures are available on :attr:`errors` (a list of
    :class:`repro.api.FleetError` records).
    """

    def __init__(self, message: str, *, errors: list | tuple = ()) -> None:
        super().__init__(message)
        self.errors = list(errors)


class UnknownAlgorithmError(ReproError, KeyError):
    """The requested algorithm name is not present in the registry."""


class UnknownProfileError(DatasetError, KeyError):
    """The requested dataset profile name is not one of the paper's four."""


class CheckpointError(ReproError):
    """A streaming checkpoint could not be written, parsed or restored.

    Raised for malformed or version-incompatible checkpoint payloads and
    when a hub contains streams that cannot be snapshotted.
    """


class ExecutionError(ReproError, RuntimeError):
    """The execution runtime itself failed.

    Raised by :mod:`repro.exec` when a worker actor crashes outside the
    per-task/per-device isolation contract (for example a handler bug, a
    dead worker process, or an unpicklable reply) — as opposed to
    :class:`FleetExecutionError`, which reports isolated task failures.
    """


class StoreError(ReproError):
    """The segment store could not be opened, written or read.

    Raised by :mod:`repro.store` for malformed manifests, corrupt or
    truncated partition files, and layout-version mismatches — any case
    where the on-disk state cannot be interpreted faithfully.
    """


class WireFormatError(ReproError, ValueError):
    """A wire frame could not be encoded or decoded.

    Raised by :mod:`repro.streaming.wire` for truncated frames, bad magic
    bytes, unknown frame kinds and protocol-version mismatches — any case
    where bytes on the wire cannot be interpreted faithfully.
    """
