"""Straight Galerkin solves and the coarse/fine correction iterations.

Both iterative schemes alternate two solves, starting from the zero iterate:

1. a coarse solve with the full (nonsymmetric) operator for a correction e,
   driven by the fine residual that ended the last round (F at first), and
2. a fine solve with only the symmetric positive definite stiffness part,
   whose right-hand side moves the lower-order terms of the current guess
   u + e to the load side.

"Two-grid" takes the fine space on a nested refinement of the coarse mesh at
the same polynomial degree; "two-level" keeps the mesh and raises the degree
instead, which is what makes its coarse-plus-SPD work so much cheaper than a
straight fine Galerkin solve.  The caller builds both spaces; nothing here
builds a mesh or a space.

Solves and rounds see only the interior unknowns, the leading block of each
assembled matrix, and the returned coefficients get their boundary zeros
once.  The fine stiffness is factored before any other fine operator is
built, so no other fine matrix sits beside SuperLU's work arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import ProblemSpec, assemble_load, assemble_nonsym, assemble_stiffness
from .solver import TOL, SolverError, make_factor
from .space import FeSpace, build_prolongation

__all__ = ["IterateState", "IterationOperators", "galerkin_solve", "run_correction_iteration"]


@dataclass
class IterateState:
    """Where the iteration stands: current fine iterate and its history."""

    current: np.ndarray
    residual_history: list


def _interior_operator(space: FeSpace, spec: ProblemSpec):
    """The interior block of the full operator A + Npart on `space`: one sum,
    then one slice, whose copy is sized exactly."""
    n = space.n_interior
    return (assemble_stiffness(space, spec) + assemble_nonsym(space, spec))[:n, :n]


class IterationOperators:
    """Assembled operators shared by every round of the correction iteration.

    Holds only what the rounds read, on the interior DOFs: the fine
    stiffness/lower-order/load triple, the prolongation between the coarse
    and fine interiors, and ready factorizations of the fine stiffness and of
    the coarse full operator (assembled directly on the coarse space, not
    projected).  The interior DOFs lead each space's numbering, so each block
    is the leading block of an assembled matrix.  Iterates vanish on the
    boundary and a coarse interior basis function vanishes at every fine
    boundary node, so no boundary row or column enters a round.
    """

    def __init__(self, spec: ProblemSpec, coarse: FeSpace, fine: FeSpace,
                 solver: str = "direct"):
        # build_prolongation accepts only a same-mesh degree raise, a nested
        # refinement at equal degree, and the identity pair refused here.
        if fine.mesh.M == coarse.mesh.M and fine.degree == coarse.degree:
            raise ValueError(
                f"fine space must be a proper enlargement of the coarse one "
                f"(M={coarse.mesh.M}, degree {coarse.degree} on both)"
            )
        self.fine = fine
        nf, nc = fine.n_interior, coarse.n_interior
        self.A_fine = assemble_stiffness(fine, spec)[:nf, :nf]
        self._solve_fine_spd = make_factor(self.A_fine, solver)
        self.prolong = build_prolongation(coarse, fine).matrix[:nf, :nc]
        self.N_fine = assemble_nonsym(fine, spec)[:nf, :nf]
        self.F_fine = assemble_load(fine, spec.f)[:nf]
        self._solve_coarse = make_factor(_interior_operator(coarse, spec), solver)

    def correction(self, r: np.ndarray) -> np.ndarray:
        """Coarse correction step: solve the full coarse operator against the
        restriction of the fine residual r.  Returns an interior coarse vector."""
        return self._solve_coarse(self.prolong.T @ r)[0]

    def update(self, u: np.ndarray, e: np.ndarray) -> np.ndarray:
        """SPD update step: shift the lower-order terms of u + e to the load
        side and solve the fine stiffness system."""
        return self._solve_fine_spd(self.F_fine - self.N_fine @ (u + self.prolong @ e))[0]

    def fine_residual(self, u: np.ndarray) -> np.ndarray:
        """F - (A + Npart) u: the one place the full fine operator is applied."""
        return self.F_fine - (self.A_fine @ u + self.N_fine @ u)


def run_correction_iteration(ops: IterationOperators, k: int) -> IterateState:
    """Run k rounds of (coarse correction, SPD update) from the zero iterate;
    the state holds the fine coefficients with their zero boundary values.
    A round that does not lower the residual's norm over |F| (1 at the zero
    iterate) while it is above 1e3 * TOL raises SolverError."""
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    u, r = np.zeros(ops.fine.n_interior), ops.F_fine
    norm_f = np.linalg.norm(ops.F_fine) or 1.0
    history = [1.0]
    for _ in range(k):
        u = ops.update(u, ops.correction(r))
        r = ops.fine_residual(u)
        history.append(float(np.linalg.norm(r) / norm_f))
        if not (history[-1] < history[-2] or history[-1] <= 1e3 * TOL):
            raise SolverError("the correction rounds do not contract: relative fine "
                              f"residual by round {', '.join(f'{h:.2e}' for h in history[1:])}")
    return IterateState(np.pad(u, (0, ops.fine.n_dofs_total - len(u))), history[1:])


def galerkin_solve(space: FeSpace, spec: ProblemSpec, solver: str = "direct") -> np.ndarray:
    """Solve the full discretization on one space; coefficients include the
    zero boundary values."""
    solve = make_factor(_interior_operator(space, spec), solver)
    x = solve(assemble_load(space, spec.f)[:space.n_interior])[0]
    return np.pad(x, (0, space.n_dofs_total - len(x)))
