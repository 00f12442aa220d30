"""Assembly of the discrete operators for the model problem.

The problem is -div(alpha grad u) + beta . grad u + gamma u = f on the unit
square with a homogeneous Dirichlet condition.  The symmetric principal part
and the lower-order part are assembled (and kept) separately: the correction
iteration needs the stiffness matrix A and the non-symmetric remainder Npart
individually, and their sum A + Npart is the full operator of the straight
Galerkin discretization.

Coefficients are callables of physical coordinates, evaluated on numpy arrays
of quadrature points.  alpha may return a scalar field or a full 2x2 matrix
field; beta returns a 2-vector field; gamma and f return scalar fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .element import QuadratureRule, build_quadrature, tabulate_basis
from .space import CoefficientError, FeSpace, checked_field

__all__ = ["ProblemSpec", "assemble_load", "assemble_nonsym", "assemble_stiffness"]

# Elements per vectorized assembly block; bounds the size of the per-block
# coefficient arrays regardless of mesh size.
_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Coefficients, right-hand side and (optionally) the exact solution."""

    alpha: Callable      # (x, y) -> scalar field or (..., 2, 2) matrix field
    beta: Callable       # (x, y) -> (..., 2) vector field
    gamma: Callable      # (x, y) -> scalar field
    f: Callable          # (x, y) -> scalar field
    exact_u: Optional[Callable] = None       # (x, y) -> scalar field
    exact_grad_u: Optional[Callable] = None  # (x, y) -> (..., 2) vector field
    name: str = ""


def default_assembly_quadrature(degree: int) -> QuadratureRule:
    """Rule used for operator and load assembly on a degree-`degree` space."""
    return build_quadrature(2 * degree + 3)


def element_blocks(space: FeSpace, quad: QuadratureRule):
    """Walk the triangles of `space` in blocks of at most _BLOCK.

    Yields (block, pts, wdet, inv): the slice of triangles, the physical
    quadrature points (e, q, 2), the quadrature weights times the Jacobian
    determinants (e, q) and the inverse Jacobians (e, 2, 2), all read off
    the mesh's affine maps.
    """
    v0, jac, det, inv = space.mesh.affine
    n = space.mesh.n_triangles
    for start in range(0, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        pts = v0[block, None, :] + (jac[block] @ quad.points.T).swapaxes(1, 2)
        yield block, pts, det[block, None] * quad.weights[None, :], inv[block]


def _integrate(space: FeSpace, table, coefficient) -> np.ndarray:
    """The one kernel of every assembled form: for every triangle e,
    local[e, m] = sum over q and c of C[e, q, c] T[(q, c), m].

    `table(phi, dphi)` builds T from the basis values phi (q, i) and the
    reference gradients dphi (q, a, i); `coefficient(pts, wdet, inv)` gives
    C on one block of element_blocks, with the weights and Jacobian in it.
    """
    quad = default_assembly_quadrature(space.degree)
    phi, grads = tabulate_basis(space.element, quad.points)
    flat = table(phi, grads.transpose(0, 2, 1))
    local = np.empty((space.mesh.n_triangles, flat.shape[1]))
    for block, pts, wdet, inv in element_blocks(space, quad):
        c = coefficient(pts, wdet, inv)
        local[block] = c.reshape(len(c), -1) @ flat
    return local


def _to_csr(space: FeSpace, local: np.ndarray) -> sp.csr_matrix:
    """Sum the local matrices, local[e, i*n_local + j], into one CSR matrix.

    The sum is the sparse product R X.  Row e*n_local + i of the element-row
    matrix X is row i of triangle e's local matrix, in the columns
    cell_to_dofs[e]; the 0/1 scatter matrix R adds that row into DOF row
    cell_to_dofs[e, i].  Scipy's product sums each row's duplicates in a
    dense accumulator, with no sort, so the result holds no duplicates, no
    entry whose sum is exactly zero, and column indices in no particular
    order: nothing here needs them sorted.
    """
    # DOF numbers are int32, exact as no space has more than
    # (6 * 4096 + 1)**2 < 2**31 DOFs.  X.indptr counts local entries,
    # n_triangles * n_local**2, past 2**31 at P6 from M = 1,171, so scipy
    # picks its dtype.
    dofs, nb = space.cell_to_dofs.astype(np.int32), space.element.n_basis
    n_rows, n = dofs.size, space.n_dofs_total
    columns = np.broadcast_to(dofs[:, None, :], (len(dofs), nb, nb)).ravel()
    X = sp.csr_matrix((local.ravel(), columns, np.arange(n_rows + 1) * nb), shape=(n_rows, n))
    R = sp.csr_matrix((np.ones(n_rows), dofs.ravel(), np.arange(n_rows + 1)),
                      shape=(n_rows, n)).T.tocsr()
    return R @ X


def assemble_stiffness(space: FeSpace, spec: ProblemSpec) -> sp.csr_matrix:
    """Assemble A[i, j] = integral of (alpha grad phi_j) . grad phi_i.

    grad phi = inv^T dphi, so the integrand is the sum over a and b of
    (inv alpha inv^T)[a, b] dphi[a, i] dphi[b, j]; a scalar alpha is alpha I.
    Raises CoefficientError unless a > 0 and 4ad > (b + c)**2 for alpha =
    [[a, b], [c, d]] at every assembly point (ellipticity: a positive definite
    symmetric part, which the SPD fine solve needs).
    """
    def coefficient(pts, wdet, inv):
        alpha = checked_field(spec.alpha, pts, wdet.shape, "alpha", matrix=True)
        a, d, off = ((alpha, alpha, 0.0) if alpha.ndim == 2 else
                     (alpha[..., 0, 0], alpha[..., 1, 1], alpha[..., 0, 1] + alpha[..., 1, 0]))
        if not np.all((a > 0) & (4 * a * d > off * off)):
            raise CoefficientError("alpha's symmetric part is not positive definite "
                                   "at some assembly point")
        if alpha.ndim == 2:   # scalar: alpha inv inv^T
            outer = np.einsum("eac,ebc->eab", inv, inv).reshape(-1, 1, 4)
            return (wdet * alpha)[..., None] * outer
        # (inv alpha inv^T)[a, b] = sum over c, d of inv[a, c] inv[b, d] alpha[c, d]
        pairs = np.einsum("eac,ebd->eabcd", inv, inv).reshape(-1, 4, 4)
        return wdet[..., None] * (alpha.reshape(*wdet.shape, 4) @ pairs.swapaxes(1, 2))

    def table(phi, dphi):
        return np.einsum("qai,qbj->qabij", dphi, dphi).reshape(4 * len(phi), -1)

    return _to_csr(space, _integrate(space, table, coefficient))


def assemble_nonsym(space: FeSpace, spec: ProblemSpec) -> sp.csr_matrix:
    """Assemble Npart[i, j] = integral of (beta . grad phi_j + gamma phi_j) phi_i."""
    def coefficient(pts, wdet, inv):
        beta = checked_field(spec.beta, pts, wdet.shape + (2,), "beta")
        gamma = checked_field(spec.gamma, pts, wdet.shape, "gamma")
        # beta . grad phi_j = (inv beta) . dphi_j
        return wdet[..., None] * np.concatenate([beta @ inv.swapaxes(1, 2), gamma[..., None]], -1)

    def table(phi, dphi):
        trial = np.concatenate([dphi, phi[:, None, :]], axis=1)      # (q, a|gamma, j)
        return np.einsum("qi,qcj->qcij", phi, trial).reshape(3 * len(phi), -1)

    return _to_csr(space, _integrate(space, table, coefficient))


def assemble_load(space: FeSpace, f) -> np.ndarray:
    """Assemble F[i] = integral of f phi_i."""
    local = _integrate(space, lambda phi, dphi: phi,
                       lambda pts, wdet, inv: wdet * checked_field(f, pts, wdet.shape, "f"))
    return np.bincount(space.cell_to_dofs.ravel(), weights=local.ravel(),
                       minlength=space.n_dofs_total)

