"""Two-level and two-grid finite element solvers on the unit square.

The package discretizes -div(alpha grad u) + beta . grad u + gamma u = f with
homogeneous Dirichlet data on (0,1)^2 using continuous Lagrange elements on
structured triangulations, and accelerates the nonsymmetric/indefinite solve
with correction iterations that only ever factor a small full operator and a
symmetric positive definite fine one.
"""

from .algorithms import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .assembly import *  # noqa: F401,F403
from .element import *  # noqa: F401,F403
from .mesh import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .space import *  # noqa: F401,F403
from . import algorithms, analysis, assembly, element, mesh, problems, solver, space

__version__ = "0.1.0"

__all__ = [name for module in (algorithms, analysis, assembly, element, mesh, problems,
                               solver, space) for name in module.__all__]
