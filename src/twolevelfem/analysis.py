"""Error norms, convergence orders and timing for the experiment tables."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import element_blocks
# perfbench/spans.py wraps these two at this module; nothing here calls them.
from .assembly import assemble_nonsym, assemble_stiffness  # noqa: F401
from .element import QuadratureRule, build_quadrature, tabulate_basis
from .space import FeSpace, checked_field


@dataclass(frozen=True)
class ExperimentRow:
    """One line of a convergence table."""

    M: int
    H: float
    l: int
    s_or_r: int
    k: int
    dofs_coarse: int
    dofs_fine: int
    h1_error: float
    scaled_error: float
    cpu_seconds: Optional[float]
    failed: bool = False


def error_quadrature(degree: int) -> QuadratureRule:
    """Rule used for error integration: well beyond assembly exactness."""
    return build_quadrature(2 * degree + 8)


def norm_quadrature(degree: int) -> QuadratureRule:
    """Rule of the H1 norm of a member of the space: the smallest one exact
    for its degree-2p integrand."""
    return build_quadrature(2 * degree)


def _coefficients(space: FeSpace, coefficients) -> np.ndarray:
    """`coefficients` as a float vector, one entry per DOF of `space`."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (space.n_dofs_total,):
        raise ValueError(
            f"expected {space.n_dofs_total} coefficients, got shape {coefficients.shape}"
        )
    return coefficients


def _h1_squared(space: FeSpace, coefficients: np.ndarray, quad: QuadratureRule,
                exact_u: Optional[Callable] = None,
                exact_grad_u: Optional[Callable] = None) -> float:
    """Integral of (u_h - u)^2 + |grad u_h - grad u|^2 by `quad`, block by
    block, with u = 0 when no exact solution is given."""
    coefficients = _coefficients(space, coefficients)
    vals, ref_grads = tabulate_basis(space.element, quad.points)
    total = 0.0
    for block, pts, wdet, inv in element_blocks(space, quad):
        local = coefficients[space.cell_to_dofs[block]]           # (e, n_local)
        uh = local @ vals.T                                       # (e, q)
        guh = np.tensordot(local, ref_grads, axes=(1, 1)) @ inv   # (e, q, 2)
        if exact_u is not None:
            uh = uh - checked_field(exact_u, pts, uh.shape, "exact_u")
            guh = guh - checked_field(exact_grad_u, pts, guh.shape, "exact_grad_u")
        total += float(np.sum(wdet * (uh**2 + np.sum(guh**2, axis=-1))))
    return total


def h1_error(space: FeSpace, coefficients: np.ndarray, exact_u: Callable,
             exact_grad_u: Callable) -> float:
    """Full H1-norm error of a finite element function against an exact one.

    `exact_grad_u(x, y)` must return the gradient with the component axis
    last.
    """
    quad = error_quadrature(space.degree)
    return float(np.sqrt(_h1_squared(space, coefficients, quad, exact_u, exact_grad_u)))


def h1_norm_discrete(space: FeSpace, coefficients) -> float:
    """H1 norm of a member of the space, from its coefficient vector.

    The integrand has degree 2p on each triangle, and norm_quadrature is
    exact for it, so up to roundoff this is the exact H1 norm of the
    piecewise polynomial, with no quadrature-of-the-exact-solution error.
    """
    return float(np.sqrt(_h1_squared(space, coefficients, norm_quadrature(space.degree))))


def h1_distance(space: FeSpace, coefficients_a, coefficients_b) -> float:
    """H1 distance between two members of the same space."""
    return h1_norm_discrete(
        space, _coefficients(space, coefficients_a) - _coefficients(space, coefficients_b))


def estimate_orders(rows: list[ExperimentRow]) -> tuple[list[float], float]:
    """Pairwise convergence orders and the least-squares slope in log H.

    Rows with non-finite or non-positive errors are excluded with a warning
    (they carry no order information).  Needs at least two usable rows with
    distinct mesh sizes.
    """
    usable = [r for r in rows if np.isfinite(r.h1_error) and r.h1_error > 0.0]
    if len(usable) < len(rows):
        warnings.warn(
            f"excluded {len(rows) - len(usable)} rows with non-positive or "
            "non-finite errors from the order estimate",
            stacklevel=2,
        )
    usable = sorted(usable, key=lambda r: -r.H)
    H = np.array([r.H for r in usable])
    e = np.array([r.h1_error for r in usable])
    if len(usable) < 2 or np.unique(H).size < 2:
        raise ValueError("order estimation needs at least two rows with distinct H")
    pairwise = [
        float(np.log(e[i] / e[i + 1]) / np.log(H[i] / H[i + 1]))
        for i in range(len(usable) - 1)
        if H[i] != H[i + 1]
    ]
    slope = float(np.polyfit(np.log(H), np.log(e), 1)[0])
    return pairwise, slope


def time_run(procedure: Callable[[], object]) -> tuple[object, float]:
    """Run `procedure` once, returning (its result, wall-clock seconds)."""
    t0 = time.perf_counter()
    result = procedure()
    return result, time.perf_counter() - t0
