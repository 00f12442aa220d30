"""Lagrange reference elements and quadrature on the unit triangle.

The reference triangle has vertices (0,0), (1,0), (0,1).  Basis functions are
nodal (Lagrange) with equispaced nodes, expressed in the monomial basis; the
coefficient matrix is computed once per degree and cached, so element objects
are cheap to request repeatedly and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DEGREE = 6

# Inverting the monomial Vandermonde is fine for the degrees supported here
# (condition numbers stay around 1e5); beyond that the nodal basis would need
# a better-conditioned construction, so refuse clearly rather than degrade.
_CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class ReferenceElement:
    """Nodal basis of polynomials of total degree <= `degree` on the triangle.

    `basis_coefficients[k, m]` is the coefficient of the monomial
    x**powers[m, 0] * y**powers[m, 1] in basis function k, so basis function k
    equals 1 at node k and 0 at every other node.
    """

    degree: int
    nodes: np.ndarray               # (n_basis, 2) equispaced lattice points
    basis_coefficients: np.ndarray  # (n_basis, n_basis)
    powers: np.ndarray              # (n_basis, 2) integer exponent pairs

    @property
    def n_basis(self) -> int:
        return self.nodes.shape[0]


def _monomials(points: np.ndarray, powers: np.ndarray) -> np.ndarray:
    x = points[:, 0][:, None]
    y = points[:, 1][:, None]
    return x ** powers[:, 0] * y ** powers[:, 1]


def _monomial_gradients(points: np.ndarray, powers: np.ndarray):
    x = points[:, 0][:, None]
    y = points[:, 1][:, None]
    a = powers[:, 0]
    b = powers[:, 1]
    dx = a * x ** np.maximum(a - 1, 0) * y ** b
    dy = b * x ** a * y ** np.maximum(b - 1, 0)
    return dx, dy


@lru_cache(maxsize=None)
def build_reference_element(degree: int) -> ReferenceElement:
    """Build (or fetch from cache) the degree-`degree` Lagrange element."""
    if not isinstance(degree, int) or not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"polynomial degree must be in [1, {MAX_DEGREE}], got {degree!r}")

    lattice = [(p, q) for q in range(degree + 1) for p in range(degree + 1 - q)]
    nodes = np.array(lattice, dtype=float) / degree
    powers = np.array(lattice, dtype=np.int64)

    vandermonde = _monomials(nodes, powers)
    cond = np.linalg.cond(vandermonde)
    if cond > _CONDITION_LIMIT:
        raise RuntimeError(
            f"nodal basis matrix for degree {degree} is near singular "
            f"(condition {cond:.3e})"
        )
    n = len(lattice)
    inv = np.linalg.solve(vandermonde, np.eye(n))
    # One Newton step tightens the inverse to the accuracy a fully pivoted
    # factorization would give.
    inv = inv @ (2.0 * np.eye(n) - vandermonde @ inv)
    return ReferenceElement(
        degree=degree,
        nodes=nodes,
        basis_coefficients=inv.T,
        powers=powers,
    )


def tabulate_basis(element: ReferenceElement, points) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate all basis functions and their gradients at reference points.

    Returns (values, gradients) with shapes (n_points, n_basis) and
    (n_points, n_basis, 2).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coeffs_t = element.basis_coefficients.T
    values = _monomials(pts, element.powers) @ coeffs_t
    dx, dy = _monomial_gradients(pts, element.powers)
    gradients = np.stack([dx @ coeffs_t, dy @ coeffs_t], axis=-1)
    return values, gradients


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Positive-weight rule on the reference triangle."""

    points: np.ndarray   # (n_points, 2)
    weights: np.ndarray  # (n_points,)
    exact_degree: int    # every polynomial of this total degree integrates exactly

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@lru_cache(maxsize=None)
def build_quadrature(min_exact_degree: int) -> QuadratureRule:
    """Build a triangle rule exact at least to the requested total degree.

    A tensor Gauss-Legendre rule on the unit square is collapsed onto the
    triangle via (xi, eta) -> (xi*(1-eta), eta), whose Jacobian 1-eta raises
    the eta-degree of the integrand by one; the per-axis point count
    ceil((d+2)/2) covers that, plus one extra point of margin.
    """
    if not isinstance(min_exact_degree, int) or min_exact_degree < 1:
        raise ValueError(
            f"requested exactness degree must be a positive integer, got {min_exact_degree!r}"
        )
    n = (min_exact_degree + 3) // 2 + 1
    t, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    xi, eta = np.meshgrid(t, t, indexing="ij")
    points = np.column_stack([(xi * (1.0 - eta)).ravel(), eta.ravel()])
    weights = np.outer(w, w * (1.0 - t)).ravel()
    return QuadratureRule(points=points, weights=weights, exact_degree=2 * n - 2)
