"""Collective spontaneous emission from an ultrathin film of three-level
V-type emitters: RWA density-matrix dynamics with the Lorentz local-field
correction, closed-form references, and pulse/branching analysis.

Each module's ``__all__`` is its public API; the package re-exports all
of them but the command line's.
"""

from . import analytics, basis, config, dynamics, observables, params, runner
from .analytics import *
from .basis import *
from .config import *
from .dynamics import *
from .observables import *
from .params import *
from .runner import *

__version__ = "0.1.0"

__all__ = ["__version__", *params.__all__, *dynamics.__all__,
           *basis.__all__, *analytics.__all__, *observables.__all__,
           *config.__all__, *runner.__all__]
