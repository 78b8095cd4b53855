"""Meshless entropy solutions of u_t + f(u)_x = 0 with convex flux.

The solution at any point is obtained from a variational formula — no
space-time mesh, no time stepping — which makes pointwise evaluation,
shock anatomy and long-time asymptotics directly computable.
"""

from . import flux, initial_data
from .characteristics import CharacteristicAnalyzer, F_l, phi_l
from .errors import (BracketError, CflViolation, ConditionFailed, FitError,
                     HullInfinite, LaxoError, LostCurve, NoDivides,
                     RootNotBracketed)
from .global_structure import GlobalStructure
from .reference_oracle import FvGrid, GodunovSolver, compare
from .shock_analysis import ShockAnalyzer
from .variational_core import (GeneralProblem, Problem, SolutionSample,
                               identity_pair)

__version__ = "0.1.0"

__all__ = [
    "flux", "initial_data",
    "Problem", "GeneralProblem", "SolutionSample",
    "identity_pair",
    "CharacteristicAnalyzer", "phi_l", "F_l",
    "ShockAnalyzer",
    "GlobalStructure",
    "FvGrid", "GodunovSolver", "compare",
    "LaxoError", "BracketError", "FitError",
    "ConditionFailed", "RootNotBracketed",
    "LostCurve", "HullInfinite", "NoDivides", "CflViolation",
    "__version__",
]
