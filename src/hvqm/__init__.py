"""Hidden-variable quantum statistics testbed.

Spin amplitudes as signed sums of direction 3-vectors, signed
quasi-probability tables, Bell/CHSH Monte Carlo under interchangeable
hidden-variable modes, slit and four-hole interference from discretized
path amplitudes, sequential Stern-Gerlach beamlines, and a lattice
phase-space lifting construction.
"""

__version__ = "0.1.0"

from .errors import (HvqmError, NotSampleableError, SequenceError, SolverError,
                     ValidationError)
from .quaternion import Quaternion
from .spin import Direction, DirectionSet

__all__ = [
    "__version__",
    "HvqmError", "ValidationError", "SolverError", "NotSampleableError",
    "SequenceError",
    "Quaternion", "Direction", "DirectionSet",
]
