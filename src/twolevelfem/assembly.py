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
Where a form's fields are constant on every triangle of a block, that block
is integrated with the quadrature weights summed into the reference table
first (the tensor representation of Kirby & Logg, ACM TOMS 32, 2006).
The solves read only the interior DOFs, which lead each space's numbering.
With `interior=True`, `assemble_stiffness` scatters A into their block and
`assemble_nonsym` keeps Npart's as a scipy `LinearOperator` that applies it
triangle by triangle; `assemble_operator` scatters A + Npart's in one product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .element import QuadratureRule, build_quadrature, tabulate_basis
from .space import CoefficientError, FeSpace, checked_field

__all__ = ["ProblemSpec", "assemble_load", "assemble_nonsym", "assemble_operator",
           "assemble_stiffness"]

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


def _integrate(space: FeSpace, table, coefficient):
    """The one kernel of every assembled form: for every triangle e,
    local[e, m] = sum over q and c of C[e, q, c] T[(q, c), m], yielded per
    block of element_blocks as (block, C, K) with local = C K.

    `table(phi, dphi)` builds T from the basis values phi (q, i) and the
    reference gradients dphi (q, a, i); `coefficient(pts, wdet, det, inv)`
    gives C on one block, with the weights and Jacobian in it.  Where
    _on_triangles finds a block's fields constant on each triangle, C is
    (e, 1, c), with det in place of wdet, and K = summed[c, m] = sum over q
    of w_q T[(q, c), m].  The assembly rules have more than one point, so
    C's shape tells the two apart; other blocks yield C (e, q c) and K = T.
    """
    quad = default_assembly_quadrature(space.degree)
    phi, grads = tabulate_basis(space.element, quad.points)
    flat = table(phi, grads.transpose(0, 2, 1))
    summed = (quad.weights @ flat.reshape(len(phi), -1)).reshape(-1, flat.shape[1])
    det = space.mesh.affine[2]
    for block, pts, wdet, inv in element_blocks(space, quad):
        c = coefficient(pts, wdet, det[block, None], inv)
        contracted, c = c.shape[1] == 1, c.reshape(len(c), -1)
        yield block, c, summed if contracted else flat


def _local(space: FeSpace, factors) -> np.ndarray:
    """Every triangle's local matrix, _integrate's C K, filled block by block."""
    local = None
    for block, C, K in factors:
        if local is None:
            local = np.empty((space.mesh.n_triangles, K.shape[1]))
        np.matmul(C, K, out=local[block])
    return local


def _on_triangles(wdet, det, *fields):
    """(det, each field at the first point of each triangle) when every field
    is constant, by exact equality, across each triangle's points of the
    block; (wdet, *fields) unchanged otherwise."""
    if all(np.all(field == field[:, :1]) for field in fields):
        return (det, *(field[:, :1] for field in fields))
    return (wdet, *fields)


def _to_csr(space: FeSpace, local: np.ndarray, interior: bool = False) -> sp.csr_matrix:
    """Sum the local matrices, local[e, i*n_local + j], into one CSR matrix:
    the full one, or with `interior` only its leading n_interior block.

    The sum is the sparse product R X.  Row e*n_local + i of the element-row
    matrix X is row i of triangle e's local matrix, in the columns
    cell_to_dofs[e]; the 0/1 scatter matrix R adds that row into DOF row
    cell_to_dofs[e, i] if that DOF is kept.  Scipy's product sums each row's
    duplicates in a dense accumulator, with no sort, so the result holds no
    duplicates, no entry whose sum is exactly zero, and column indices in no
    particular order: nothing here needs them sorted.  A column that is not
    kept is zeroed in `local`, in place and only on the triangles that have
    one, and pointed at column 0, where its exact zeros leave no entry; so
    `local` is never copied.
    """
    # DOF numbers are int32, exact as no space has more than
    # (6 * 4096 + 1)**2 < 2**31 DOFs.  X.indptr counts local entries,
    # n_triangles * n_local**2, past 2**31 at P6 from M = 1,171, so scipy
    # picks its dtype.
    dofs, nb = space.cell_to_dofs.astype(np.int32), space.element.n_basis
    n_rows, n = dofs.size, space.n_interior if interior else space.n_dofs_total
    kept = dofs < n
    cut, blocks = np.flatnonzero(~kept.all(1)), local.reshape(-1, nb, nb)
    blocks[cut] = np.where(kept[cut, None, :], blocks[cut], 0.0)
    columns = np.broadcast_to(np.where(kept, dofs, 0)[:, None, :], (len(dofs), nb, nb)).ravel()
    X = sp.csr_matrix((blocks.ravel(), columns, np.arange(n_rows + 1) * nb), shape=(n_rows, n))
    R = sp.csr_matrix((np.ones(kept.sum()), dofs[kept], np.append(0, np.cumsum(kept))),
                      shape=(n_rows, n)).T.tocsr()
    return R @ X


def _stiffness(space: FeSpace, spec: ProblemSpec):
    """_integrate's factors of A, row-major in (i, j) as _to_csr reads them.

    grad phi = inv^T dphi, so the integrand is the sum over a and b of
    (inv alpha inv^T)[a, b] dphi[a, i] dphi[b, j]; a scalar alpha is alpha I.
    Raises CoefficientError unless a > 0 and 4ad > (b + c)**2 for alpha =
    [[a, b], [c, d]] at every assembly point (ellipticity: a positive definite
    symmetric part, which the SPD fine solve needs).
    """
    def coefficient(pts, wdet, det, inv):
        alpha = checked_field(spec.alpha, pts, wdet.shape, "alpha", matrix=True)
        a, d, off = ((alpha, alpha, 0.0) if alpha.ndim == 2 else
                     (alpha[..., 0, 0], alpha[..., 1, 1], alpha[..., 0, 1] + alpha[..., 1, 0]))
        if not np.all((a > 0) & (4 * a * d > off * off)):
            raise CoefficientError("alpha's symmetric part is not positive definite "
                                   "at some assembly point")
        wdet, alpha = _on_triangles(wdet, det, alpha)
        if alpha.ndim == 2:   # scalar: alpha inv inv^T
            outer = np.einsum("eac,ebc->eab", inv, inv).reshape(-1, 1, 4)
            return (wdet * alpha)[..., None] * outer
        # (inv alpha inv^T)[a, b] = sum over c, d of inv[a, c] inv[b, d] alpha[c, d]
        pairs = np.einsum("eac,ebd->eabcd", inv, inv).reshape(-1, 4, 4)
        return wdet[..., None] * (alpha.reshape(*wdet.shape, 4) @ pairs.swapaxes(1, 2))

    def table(phi, dphi):
        return np.einsum("qai,qbj->qabij", dphi, dphi).reshape(4 * len(phi), -1)

    return _integrate(space, table, coefficient)


def _nonsym(space: FeSpace, spec: ProblemSpec):
    """_integrate's factors of Npart, row-major in (i, j) as _to_csr reads them."""
    def coefficient(pts, wdet, det, inv):
        beta = checked_field(spec.beta, pts, wdet.shape + (2,), "beta")
        gamma = checked_field(spec.gamma, pts, wdet.shape, "gamma")
        wdet, beta, gamma = _on_triangles(wdet, det, beta, gamma)
        # beta . grad phi_j = (inv beta) . dphi_j
        return wdet[..., None] * np.concatenate([beta @ inv.swapaxes(1, 2), gamma[..., None]], -1)

    def table(phi, dphi):
        trial = np.concatenate([dphi, phi[:, None, :]], axis=1)      # (q, a|gamma, j)
        return np.einsum("qi,qcj->qcij", phi, trial).reshape(3 * len(phi), -1)

    return _integrate(space, table, coefficient)


def assemble_stiffness(space: FeSpace, spec: ProblemSpec, interior: bool = False
                       ) -> sp.csr_matrix:
    """Assemble A[i, j] = integral of (alpha grad phi_j) . grad phi_i (see
    _stiffness), or with `interior` only its leading n_interior block."""
    return _to_csr(space, _local(space, _stiffness(space, spec)), interior)


def assemble_nonsym(space: FeSpace, spec: ProblemSpec, interior: bool = False):
    """Assemble Npart[i, j] = integral of (beta . grad phi_j + gamma phi_j) phi_i
    as a CSR matrix, or with `interior` its leading n_interior block as a
    LinearOperator that applies it triangle by triangle from _integrate's
    factors, never summed into a matrix (Kronbichler & Kormann, Computers &
    Fluids 63, 2012): a contracted block keeps C (e, c) and summed
    (c, n_local**2), any other block its local matrices."""
    if not interior:
        return _to_csr(space, _local(space, _nonsym(space, spec)))
    n = space.n_interior
    # K is summed, one row per table (beta's two and gamma), or T, one per point and table.
    blocks = [(b, C, K) if len(K) == 3 else (b, C @ K, None) for b, C, K in _nonsym(space, spec)]
    dofs = np.minimum(space.cell_to_dofs, n)   # boundary DOFs -> dump slot n

    def apply(x: np.ndarray) -> np.ndarray:
        padded, y = np.append(x, 0.0), np.empty(dofs.shape)
        nb = y.shape[1]
        for block, C, K in blocks:
            x_e = padded[dofs[block]]
            if K is None:
                y[block] = np.einsum("eij,ej->ei", C.reshape(-1, nb, nb), x_e)
            else:   # one (e, j) x (j, i) product per table c
                y[block] = np.einsum("ec,cei->ei", C, x_e @ K.reshape(-1, nb, nb).swapaxes(1, 2))
        return np.bincount(dofs.ravel(), y.ravel(), len(padded))[:-1]

    return spla.LinearOperator((n, n), matvec=apply, dtype=float)


def assemble_operator(space: FeSpace, spec: ProblemSpec) -> sp.csr_matrix:
    """The leading n_interior block of the full operator A + Npart, from one
    scatter of the summed local matrices."""
    local = _local(space, _stiffness(space, spec))
    local += _local(space, _nonsym(space, spec))
    return _to_csr(space, local, interior=True)


def assemble_load(space: FeSpace, f) -> np.ndarray:
    """Assemble F[i] = integral of f phi_i."""
    def coefficient(pts, wdet, det, inv):
        wdet, field = _on_triangles(wdet, det, checked_field(f, pts, wdet.shape, "f"))
        return wdet * field

    local = _local(space, _integrate(space, lambda phi, dphi: phi, coefficient))
    return np.bincount(space.cell_to_dofs.ravel(), weights=local.ravel(),
                       minlength=space.n_dofs_total)

