"""Sparse linear solvers with a uniform report.

`make_factor` is the one entry point, for the symmetric positive definite
sub-solves and the general nonsymmetric ones alike.  Every solve is one
certified refinement loop, `_certified`, around an inner solve: SuperLU
(the default) or restarted GMRES.

SuperLU factors each matrix in the order given, with partial pivoting, which
keeps the one factorization safe for the nonsymmetric, possibly indefinite
coarse operators.  The spaces number their interior DOFs first and in
elimination order (`space.build_space`), so the leading block of an assembled
matrix comes ready to factor; a caller of `make_factor` on a matrix of their
own owns its order.  Refinement runs while the relative residual is
above both the tolerance and the floor float64 evaluation of the residual can
certify (Arioli, Demmel & Duff, SIAM J. Matrix Anal. Appl. 1989), so no inner
solve is spent below what the arithmetic can confirm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolveReport", "SolverError", "make_factor"]

TOL = 1e-12
_MAX_REFINE = 3
_KRYLOV_ITERS_PER_UNKNOWN = 10


@dataclass
class SolveReport:
    """What one linear solve did: method, work and achieved residual."""

    method: str
    iterations: int
    relative_residual: float


class SolverError(RuntimeError):
    """A linear solve failed; carries the report of the attempt."""

    def __init__(self, message: str, report: Optional[SolveReport] = None):
        super().__init__(message)
        self.report = report


def _relative_residual(A, x, b, norm_b) -> float:
    return float(np.linalg.norm(A @ x - b) / norm_b)


def _scaled(b: np.ndarray) -> tuple[np.ndarray, int]:
    """b times 2**-e, and e: 0 unless the squares of b's entries would
    underflow (or overflow) its 2-norm, else the e that brings max|b| into
    [0.5, 1).  Scaling b itself by a power of two is exact, even where 2**-e
    would overflow, so ldexp(x, e) solves the original system."""
    exponent = int(np.frexp(np.max(np.abs(b)))[1])
    return (b, 0) if abs(exponent) < 500 else (np.ldexp(b, -exponent), exponent)


def _residual_floor(A, x: np.ndarray, b: np.ndarray, norm_b: float) -> float:
    """Smallest relative residual float64 evaluation can certify: A@x - b
    rounds terms of size |A| |x| + |b|, so a backward-stable solve at that scale
    times machine epsilon is as exact as the arithmetic allows.  The floor
    exceeds TOL on large systems whose loads are small against the stiffness."""
    # |A| over the CSR A's own index arrays, which abs(A) would copy.
    abs_A = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    scale = np.linalg.norm(abs_A @ np.abs(x) + np.abs(b))
    return 8.0 * np.finfo(float).eps * float(scale) / norm_b


def _certified(A, b: np.ndarray, inner: Callable, method: str) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = b by inner(r) -> (d, iterations) with A d ~ r, refined at
    most _MAX_REFINE times while the residual is above TOL and the certified
    floor and each step lowers it; iterations = refinements + inner ones."""
    if not b.any():
        return np.zeros_like(b), SolveReport(method, 0, 0.0)
    b, exponent = _scaled(b)
    norm_b = np.linalg.norm(b)
    x, iterations = inner(b)
    resid = _relative_residual(A, x, b, norm_b)
    refinements = 0
    target = max(TOL, _residual_floor(A, x, b, norm_b)) if resid > TOL else TOL
    while resid > target and refinements < _MAX_REFINE:
        step, spent = inner(b - A @ x)
        iterations += spent
        candidate = x + step
        new_resid = _relative_residual(A, candidate, b, norm_b)
        if not new_resid < resid:
            break
        x, resid = candidate, new_resid
        refinements += 1
    report = SolveReport(method, refinements + iterations, resid)
    if not np.isfinite(resid) or not np.all(np.isfinite(x)):
        raise SolverError(f"{method} solve produced non-finite values "
                          "(matrix singular or near singular)", report)
    if resid > target:
        raise SolverError(f"{method} solve stalled at relative residual {resid:.3e} after "
                          f"{report.iterations} iterations (target {target:.1e}: tolerance "
                          f"{TOL:.1e} or the certified floor, whichever is larger)", report)
    return np.ldexp(x, exponent), report


class DirectFactor:
    """Reusable sparse LU factorization in the order given; its solves run
    the certified loop."""

    def __init__(self, A: sp.csr_matrix):
        # A.T is the CSC form of A^T on A's arrays, which SuperLU sorts in place
        # into canonical form: it factors A^T and each solve applies its transpose.
        self.A = A
        try:
            self._lu = spla.splu(self.A.T, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise SolverError(f"direct factorization failed: {exc}") from exc

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        return _certified(self.A, b, lambda r: (self._lu.solve(r, trans="T"), 0), "direct")


def _krylov_solve(A, b) -> tuple[np.ndarray, SolveReport]:
    """Restarted GMRES from the zero guess as the certified loop's inner
    solve; its runs share at most 10 iterations per unknown."""
    budget = _KRYLOV_ITERS_PER_UNKNOWN * A.shape[0]

    def gmres(r):
        nonlocal budget
        if budget == 0:
            return np.zeros_like(r), 0
        ticks = []   # one entry per GMRES iteration
        d, _ = spla.gmres(A, r, rtol=TOL, atol=0.0, maxiter=budget, restart=50,
                          callback=ticks.append, callback_type="legacy")
        budget -= len(ticks)
        return d, len(ticks)

    return _certified(A, b, gmres, "gmres")


def make_factor(A: sp.spmatrix, solver: str = "direct"
                ) -> Callable[[np.ndarray], tuple[np.ndarray, SolveReport]]:
    """The solve of A x = b for repeated right-hand sides: b -> (x, report).

    Both choices run the same certified refinement loop; solver picks its
    inner solve: "direct" (SuperLU, factored once here and shared by every
    call) or "iterative" (restarted GMRES from scratch on every call).
    Raises SolverError on breakdown, singularity or a stalled residual.
    """
    A = A.tocsr()
    if solver == "iterative":
        return lambda b: _krylov_solve(A, b)
    if solver != "direct":
        raise ValueError(f"unknown solver {solver!r}")
    return DirectFactor(A).solve
