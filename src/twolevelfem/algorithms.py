"""Straight Galerkin solves and the coarse/fine correction iterations.

Both iterative schemes alternate two solves, starting from the zero iterate:

1. a coarse solve with the full (nonsymmetric) operator for a correction e,
   driven by the residual of the current fine iterate, and
2. a fine solve with only the symmetric positive definite stiffness part,
   whose right-hand side moves the lower-order terms of the current guess
   u + e to the load side.

"Two-grid" takes the fine space on a nested refinement of the coarse mesh at
the same polynomial degree; "two-level" keeps the mesh and raises the degree
instead, which is what makes its coarse-plus-SPD work so much cheaper than a
straight fine Galerkin solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    ProblemSpec,
    assemble_load,
    assemble_nonsym,
    assemble_stiffness,
    interior_block,
)
from .mesh import Mesh
from .solver import make_factor
from .space import FeSpace, build_prolongation, build_space


@dataclass
class IterateState:
    """Where the iteration stands: current fine iterate and its history."""

    current: np.ndarray
    iteration: int = 0
    residual_history: list = field(default_factory=list)


class IterationOperators:
    """Assembled operators shared by every round of the correction iteration.

    Holds the fine stiffness/lower-order/load triple, the coarse full
    operator (assembled directly on the coarse space, not projected), the
    prolongation between them, and ready factorizations of both reduced
    matrices.
    """

    def __init__(self, spec: ProblemSpec, coarse: FeSpace, fine: FeSpace,
                 solver: str = "direct"):
        self.coarse = coarse
        self.fine = fine
        # build_prolongation accepts only a same-mesh degree raise, a nested
        # refinement at equal degree, and the identity pair refused below.
        self.prolong = build_prolongation(coarse, fine).matrix
        if fine.mesh.M == coarse.mesh.M and fine.degree == coarse.degree:
            raise ValueError(
                f"fine space must be a proper enlargement of the coarse one "
                f"(M={coarse.mesh.M}, degree {coarse.degree} on both)"
            )

        self.A_fine = assemble_stiffness(fine, spec)
        self.N_fine = assemble_nonsym(fine, spec)
        self.F_fine = assemble_load(fine, spec.f)

        A_coarse = assemble_stiffness(coarse, spec)
        N_coarse = assemble_nonsym(coarse, spec)

        self.fine_interior = fine.interior_dofs
        self.coarse_interior = coarse.interior_dofs

        self._solve_fine_spd = make_factor(interior_block(self.A_fine, fine), solver)
        self._solve_coarse = make_factor(interior_block(A_coarse + N_coarse, coarse), solver)

    def fine_operator_apply(self, u: np.ndarray) -> np.ndarray:
        """Apply the full fine operator A + Npart."""
        return self.A_fine @ u + self.N_fine @ u

    def correction(self, u: np.ndarray) -> np.ndarray:
        """Coarse correction step: solve the full coarse operator against the
        restricted fine residual.  Returns a full-length coarse vector that is
        zero on the boundary."""
        residual = self.F_fine - self.fine_operator_apply(u)
        rhs = (self.prolong.T @ residual)[self.coarse_interior]
        e = np.zeros(self.coarse.n_dofs_total)
        e[self.coarse_interior] = self._solve_coarse(rhs)[0]
        return e

    def update(self, u: np.ndarray, e: np.ndarray) -> np.ndarray:
        """SPD update step: shift the lower-order terms of u + e to the load
        side and solve the fine stiffness system."""
        shifted = u + self.prolong @ e
        rhs = (self.F_fine - self.N_fine @ shifted)[self.fine_interior]
        new = np.zeros(self.fine.n_dofs_total)
        new[self.fine_interior] = self._solve_fine_spd(rhs)[0]
        return new

    def fine_residual(self, u: np.ndarray) -> float:
        """Relative residual of the full fine system at the iterate u."""
        fi = self.fine_interior
        r = (self.F_fine - self.fine_operator_apply(u))[fi]
        norm_f = np.linalg.norm(self.F_fine[fi])
        return float(np.linalg.norm(r) / norm_f) if norm_f > 0 else float(np.linalg.norm(r))


def run_correction_iteration(ops: IterationOperators, k: int) -> IterateState:
    """Run k rounds of (coarse correction, SPD update) from the zero iterate."""
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    u = np.zeros(ops.fine.n_dofs_total)
    state = IterateState(current=u)
    for _ in range(k):
        e = ops.correction(u)
        u = ops.update(u, e)
        state.current = u
        state.iteration += 1
        state.residual_history.append(ops.fine_residual(u))
    return state


def galerkin_solve(space: FeSpace, spec: ProblemSpec, solver: str = "direct") -> np.ndarray:
    """Solve the full discretization on one space; coefficients include the
    zero boundary values."""
    K = interior_block(assemble_stiffness(space, spec) + assemble_nonsym(space, spec), space)
    F = assemble_load(space, spec.f)
    u = np.zeros(space.n_dofs_total)
    u[space.interior_dofs] = make_factor(K, solver)(F[space.interior_dofs])[0]
    return u


def two_level_iterate(spec: ProblemSpec, coarse_degree: int, fine_degree: int,
                      mesh: Mesh, k: int, solver: str = "direct") -> IterateState:
    """Correction iteration with both spaces on the same mesh and a raised
    fine degree (fine_degree >= coarse_degree + 1)."""
    coarse, fine = build_space(mesh, coarse_degree), build_space(mesh, fine_degree)
    return run_correction_iteration(IterationOperators(spec, coarse, fine, solver), k)
