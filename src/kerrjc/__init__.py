"""Kerr-nonlinear Jaynes-Cummings simulation engine.

Closed and open (Lindblad) dynamics of a two-level atom coupled to a
Kerr-nonlinear cavity mode, with entanglement (negativity) and
geometric-phase diagnostics, parameter-sweep experiments and a CLI.
"""

__version__ = "0.1.0"

from .hilbert import SpaceSpec, TruncationError
from .model import InitialStateSpec, ModelParams, SectorAnalytics
from .dynamics import IntegratorConfig, LindbladSpec, PositivityError, TrajectoryRecord
from .information import PlanarityReport
from .geomphase import (
    CoarseGridError,
    EigenTrack,
    SingularCheckpointError,
    TrackingError,
)
from .experiments import ConfigError, SweepResult, SweepSpec

__all__ = [
    "SpaceSpec",
    "TruncationError",
    "ModelParams",
    "SectorAnalytics",
    "InitialStateSpec",
    "LindbladSpec",
    "IntegratorConfig",
    "TrajectoryRecord",
    "PositivityError",
    "PlanarityReport",
    "EigenTrack",
    "TrackingError",
    "SingularCheckpointError",
    "CoarseGridError",
    "SweepSpec",
    "SweepResult",
    "ConfigError",
    "__version__",
]
