"""Sparse linear solvers with a uniform report.

`make_factor` is the one entry point, for the symmetric positive definite
sub-solves and the general nonsymmetric ones alike.  Direct factorization
(SuperLU) is the default; restarted GMRES is available for timing
comparisons.

Every matrix here has a structurally symmetric sparsity pattern, so SuperLU
orders columns by minimum degree on the pattern of A^T + A rather than by its
default COLAMD; partial pivoting is kept, which keeps the one factorization
safe for the nonsymmetric, possibly indefinite coarse operators.  Direct
solves are polished with iterative refinement while the relative residual is
above both the tolerance and the floor that float64 evaluation of the
residual can certify, so the iteration never inherits solver noise and no
triangular solve is spent below what the arithmetic can confirm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TOL = 1e-12
_MAX_REFINE = 3
_KRYLOV_ITERS_PER_UNKNOWN = 10


@dataclass
class SolveReport:
    """What one linear solve did: method, work and achieved residual."""

    method: str
    iterations: int
    relative_residual: float
    factor_time_s: float
    solve_time_s: float


class SolverError(RuntimeError):
    """A linear solve failed; carries the report of the attempt."""

    def __init__(self, message: str, report: Optional[SolveReport] = None):
        super().__init__(message)
        self.report = report


def _relative_residual(A, x, b, norm_b) -> float:
    return float(np.linalg.norm(A @ x - b) / norm_b)


def _scaled(b: np.ndarray) -> tuple[np.ndarray, float]:
    """b times a power of two s, and s: 1 unless the squares of b's entries
    would underflow (or overflow) its 2-norm, else the s that brings max|b|
    into [0.5, 1).  Scaling by a power of two is exact, so x / s solves the
    original system and ordinary solves stay bitwise unchanged."""
    exponent = np.frexp(np.max(np.abs(b)))[1]
    scale = 1.0 if abs(exponent) < 500 else float(np.ldexp(1.0, -exponent))
    return b * scale, scale


class DirectFactor:
    """Reusable sparse LU factorization with residual polishing."""

    def __init__(self, A: sp.spmatrix):
        self.A = A.tocsr()
        t0 = time.perf_counter()
        try:
            self._lu = spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(f"direct factorization failed: {exc}") from exc
        self.factor_time_s = time.perf_counter() - t0

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        t0 = time.perf_counter()
        if not b.any():
            report = SolveReport("direct", 0, 0.0, self.factor_time_s,
                                 time.perf_counter() - t0)
            return np.zeros_like(b), report
        b, scale = _scaled(b)
        norm_b = np.linalg.norm(b)
        x = self._lu.solve(b)
        resid = _relative_residual(self.A, x, b, norm_b)
        refinements = 0
        target = TOL
        if resid > TOL:
            target = max(TOL, self._residual_floor(x, b, norm_b))
        while resid > target and refinements < _MAX_REFINE:
            candidate = x + self._lu.solve(b - self.A @ x)
            new_resid = _relative_residual(self.A, candidate, b, norm_b)
            if not new_resid < resid:
                break
            x, resid = candidate, new_resid
            refinements += 1
        report = SolveReport("direct", refinements, resid, self.factor_time_s,
                             time.perf_counter() - t0)
        if not np.isfinite(resid) or not np.all(np.isfinite(x)):
            raise SolverError("direct solve produced non-finite values "
                              "(matrix singular or near singular)", report)
        if resid > target:
            raise SolverError(
                f"direct solve stalled at relative residual {resid:.3e} "
                f"(target {target:.1e}: tolerance {TOL:.1e} or the certified "
                "floor, whichever is larger)", report)
        return x / scale, report

    def _residual_floor(self, x: np.ndarray, b: np.ndarray, norm_b: float) -> float:
        """Smallest relative residual float64 evaluation can certify.

        Computing A@x - b rounds terms of size |A| |x| + |b|, so once the
        residual reaches that scale times machine epsilon it cannot shrink
        further; a backward-stable solve reaching this floor is as exact as
        the arithmetic allows even when the floor exceeds the tolerance
        (which happens on large systems whose load vectors are small against
        the stiffness entries).
        """
        scale = np.linalg.norm(abs(self.A) @ np.abs(x) + np.abs(b))
        return 8.0 * np.finfo(float).eps * float(scale) / norm_b


def _krylov_solve(A, b) -> tuple[np.ndarray, SolveReport]:
    """Restarted GMRES from the zero guess, at most 10 iterations per unknown."""
    if not b.any():
        return np.zeros_like(b), SolveReport("gmres", 0, 0.0, 0.0, 0.0)
    b, scale = _scaled(b)
    norm_b = np.linalg.norm(b)
    count = {"n": 0}

    def tick(_):
        count["n"] += 1

    maxiter = _KRYLOV_ITERS_PER_UNKNOWN * A.shape[0]
    t0 = time.perf_counter()
    x, info = spla.gmres(A, b, rtol=TOL, atol=0.0, maxiter=maxiter,
                         restart=50, callback=tick, callback_type="legacy")
    elapsed = time.perf_counter() - t0
    resid = _relative_residual(A, x, b, norm_b)
    report = SolveReport("gmres", count["n"], resid, 0.0, elapsed)
    if info != 0 or resid > TOL:
        raise SolverError(
            f"gmres did not converge within {maxiter} iterations "
            f"(relative residual {resid:.3e}, tolerance {TOL:.1e})", report)
    return x / scale, report


def make_factor(A: sp.spmatrix, solver: str = "direct"
                ) -> Callable[[np.ndarray], tuple[np.ndarray, SolveReport]]:
    """The solve of A x = b for repeated right-hand sides: b -> (x, report).

    solver is "direct" (SuperLU, factored once here and shared by every
    call) or "iterative" (GMRES from scratch on every call).  Raises
    SolverError on breakdown, singularity or non-convergence.
    """
    if solver == "iterative":
        return lambda b: _krylov_solve(A, b)
    if solver != "direct":
        raise ValueError(f"unknown solver {solver!r}")
    return DirectFactor(A).solve
