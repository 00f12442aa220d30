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

from dataclasses import dataclass

import numpy as np

from .assembly import ProblemSpec, assemble_load, assemble_nonsym, assemble_stiffness
from .mesh import Mesh
from .solver import make_factor
from .space import FeSpace, build_prolongation, build_space


@dataclass
class IterateState:
    """Where the iteration stands: current fine iterate and its history."""

    current: np.ndarray
    residual_history: list


def _interior_solve(solve, rhs: np.ndarray, space: FeSpace) -> np.ndarray:
    """`solve` on the interior entries of `rhs`, returned with the zero
    boundary values appended: a full coefficient vector of `space`."""
    x = solve(rhs[:space.n_interior])[0]
    return np.concatenate([x, np.zeros(space.n_dofs_total - len(x))])


class IterationOperators:
    """Assembled operators shared by every round of the correction iteration.

    Holds the fine stiffness/lower-order/load triple, the coarse full
    operator (assembled directly on the coarse space, not projected), the
    prolongation between them, and ready factorizations of both interior
    blocks.  The interior DOFs lead each space's numbering, so an interior
    block is the leading block of a matrix and an interior right-hand side
    the leading entries of a vector.
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

        self.coarse_interior = np.arange(coarse.n_interior)

        nf, nc = fine.n_interior, coarse.n_interior
        self._solve_fine_spd = make_factor(self.A_fine[:nf, :nf], solver)
        self._solve_coarse = make_factor((A_coarse + N_coarse)[:nc, :nc], solver)

    def fine_operator_apply(self, u: np.ndarray) -> np.ndarray:
        """Apply the full fine operator A + Npart."""
        return self.A_fine @ u + self.N_fine @ u

    def correction(self, u: np.ndarray) -> np.ndarray:
        """Coarse correction step: solve the full coarse operator against the
        restricted fine residual.  Returns a full-length coarse vector that is
        zero on the boundary."""
        residual = self.F_fine - self.fine_operator_apply(u)
        return _interior_solve(self._solve_coarse, self.prolong.T @ residual, self.coarse)

    def update(self, u: np.ndarray, e: np.ndarray) -> np.ndarray:
        """SPD update step: shift the lower-order terms of u + e to the load
        side and solve the fine stiffness system."""
        rhs = self.F_fine - self.N_fine @ (u + self.prolong @ e)
        return _interior_solve(self._solve_fine_spd, rhs, self.fine)

    def fine_residual(self, u: np.ndarray) -> float:
        """Relative residual of the full fine system at the iterate u."""
        n = self.fine.n_interior
        r = (self.F_fine - self.fine_operator_apply(u))[:n]
        norm_f = np.linalg.norm(self.F_fine[:n])
        return float(np.linalg.norm(r) / norm_f) if norm_f > 0 else float(np.linalg.norm(r))


def run_correction_iteration(ops: IterationOperators, k: int) -> IterateState:
    """Run k rounds of (coarse correction, SPD update) from the zero iterate."""
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    u = np.zeros(ops.fine.n_dofs_total)
    history = []
    for _ in range(k):
        u = ops.update(u, ops.correction(u))
        history.append(ops.fine_residual(u))
    return IterateState(u, history)


def galerkin_solve(space: FeSpace, spec: ProblemSpec, solver: str = "direct") -> np.ndarray:
    """Solve the full discretization on one space; coefficients include the
    zero boundary values."""
    n = space.n_interior
    K = (assemble_stiffness(space, spec) + assemble_nonsym(space, spec))[:n, :n]
    return _interior_solve(make_factor(K, solver), assemble_load(space, spec.f), space)


def two_level_iterate(spec: ProblemSpec, coarse_degree: int, fine_degree: int,
                      mesh: Mesh, k: int, solver: str = "direct") -> IterateState:
    """Correction iteration with both spaces on the same mesh and a raised
    fine degree (fine_degree >= coarse_degree + 1)."""
    coarse, fine = build_space(mesh, coarse_degree), build_space(mesh, fine_degree)
    return run_correction_iteration(IterationOperators(spec, coarse, fine, solver), k)
