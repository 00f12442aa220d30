"""Two-level and two-grid finite element solvers on the unit square.

The package discretizes -div(alpha grad u) + beta . grad u + gamma u = f with
homogeneous Dirichlet data on (0,1)^2 using continuous Lagrange elements on
structured triangulations, and accelerates the nonsymmetric/indefinite solve
with correction iterations that only ever factor a small full operator and a
symmetric positive definite fine one.
"""

from .algorithms import (
    IterateState,
    IterationOperators,
    galerkin_solve,
    run_correction_iteration,
    two_level_iterate,
)
from .analysis import (
    ExperimentRow,
    estimate_orders,
    h1_distance,
    h1_error,
    h1_norm_discrete,
    time_run,
)
from .assembly import (
    CoefficientError,
    ProblemSpec,
    assemble_load,
    assemble_nonsym,
    assemble_stiffness,
    interior_block,
)
from .element import (
    QuadratureRule,
    ReferenceElement,
    build_quadrature,
    build_reference_element,
    tabulate_basis,
)
from .mesh import (
    Mesh,
    MeshGeometryError,
    MeshSizeError,
    build_structured_mesh,
    refine_nested,
)
from .problems import example_1, example_2, get_problem, load_problem_file
from .solver import SolveReport, SolverError, make_factor
from .space import (
    FeSpace,
    Prolongation,
    build_prolongation,
    build_space,
    dof_count,
    evaluate,
    interpolate,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientError",
    "ExperimentRow",
    "FeSpace",
    "IterateState",
    "IterationOperators",
    "Mesh",
    "MeshGeometryError",
    "MeshSizeError",
    "ProblemSpec",
    "Prolongation",
    "QuadratureRule",
    "ReferenceElement",
    "SolveReport",
    "SolverError",
    "assemble_load",
    "assemble_nonsym",
    "assemble_stiffness",
    "build_prolongation",
    "build_quadrature",
    "build_reference_element",
    "build_space",
    "build_structured_mesh",
    "dof_count",
    "estimate_orders",
    "evaluate",
    "example_1",
    "example_2",
    "galerkin_solve",
    "get_problem",
    "h1_distance",
    "h1_error",
    "h1_norm_discrete",
    "interior_block",
    "interpolate",
    "load_problem_file",
    "make_factor",
    "refine_nested",
    "run_correction_iteration",
    "tabulate_basis",
    "time_run",
    "two_level_iterate",
]
