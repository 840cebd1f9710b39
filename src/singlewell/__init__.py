"""Quantum Fisher information for acceleration sensing with two-mode bosons
in a single trap: collective-spin model, dynamical generator, channel QFI,
ground-state protocols and parameter sweeps."""

from . import analytic, dynamics, errors, hamiltonians, modes, protocols, spin_core, sweeps
from .analytic import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .hamiltonians import *  # noqa: F401,F403
from .modes import *  # noqa: F401,F403
from .protocols import *  # noqa: F401,F403
from .spin_core import *  # noqa: F401,F403
from .sweeps import *  # noqa: F401,F403

__version__ = "0.1.0"

# The public API is every module's __all__; each module lists its own names once.
__all__ = [
    name
    for module in (errors, spin_core, modes, hamiltonians, dynamics, analytic, protocols, sweeps)
    for name in module.__all__
]
