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
from .mesh import Mesh, MeshGeometryError
# The coefficient check lives in space, whose interpolation checks exact_u;
# CoefficientError is imported only so twolevelfem.assembly still exports it.
from .space import CoefficientError, FeSpace, checked_field

# Elements per vectorized assembly block; bounds the size of the per-block
# gradient tables regardless of mesh size.
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


def element_geometry(mesh: Mesh):
    """First vertices, Jacobians, determinants and inverse Jacobians.

    Raises MeshGeometryError if any triangle is degenerate or negatively
    oriented.
    """
    v = mesh.vertices[mesh.triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(det <= 0.0):
        bad = int(np.argmax(det <= 0.0))
        raise MeshGeometryError(
            f"triangle {bad} has non-positive Jacobian determinant {det[bad]:.3e}"
        )
    jac = np.stack([d1, d2], axis=-1)
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1] / det
    inv[:, 0, 1] = -jac[:, 0, 1] / det
    inv[:, 1, 0] = -jac[:, 1, 0] / det
    inv[:, 1, 1] = jac[:, 0, 0] / det
    return v[:, 0], jac, det, inv


def element_blocks(space: FeSpace, quad: QuadratureRule):
    """Walk the triangles of `space` in blocks of at most _BLOCK.

    Yields (block, pts, wdet, inv): the slice of triangles, the physical
    quadrature points (e, q, 2), the quadrature weights times the Jacobian
    determinants (e, q) and the inverse Jacobians (e, 2, 2).
    """
    v0, jac, det, inv = element_geometry(space.mesh)
    n = space.mesh.n_triangles
    for start in range(0, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        pts = v0[block, None, :] + np.einsum("eab,qb->eqa", jac[block], quad.points)
        yield block, pts, det[block, None] * quad.weights[None, :], inv[block]


def _physical_gradients(ref_grads, inv):
    # grad_x phi = J^{-T} grad_ref phi, as (e, q, i, 2)
    return (ref_grads.reshape(-1, 2) @ inv).reshape(inv.shape[0], *ref_grads.shape)


def _to_csr(space: FeSpace, local: list) -> sp.csr_matrix:
    """Sum the local matrices of every block, in element_blocks order."""
    dofs = space.cell_to_dofs
    nb = dofs.shape[1]
    n = space.n_dofs_total
    matrix = sp.coo_matrix(
        (np.concatenate([m.ravel() for m in local]),
         (np.repeat(dofs, nb, axis=1).ravel(), np.tile(dofs, (1, nb)).ravel())),
        shape=(n, n),
    ).tocsr()
    matrix.sort_indices()
    return matrix


def assemble_stiffness(space: FeSpace, spec: ProblemSpec) -> sp.csr_matrix:
    """Assemble A[i, j] = integral of (alpha grad phi_j) . grad phi_i."""
    quad = default_assembly_quadrature(space.degree)
    _, ref_grads = tabulate_basis(space.element, quad.points)
    nb = space.element.n_basis
    nq = quad.n_points

    local = []
    for _, pts, wdet, inv in element_blocks(space, quad):
        grads = _physical_gradients(ref_grads, inv)               # (e, q, i, 2)
        ne = grads.shape[0]

        raw = np.asarray(spec.alpha(pts[..., 0], pts[..., 1]), dtype=float)
        if raw.shape[-2:] == (2, 2):
            amat = checked_field(raw, (ne, nq, 2, 2), "alpha")
            weighted = np.einsum("eqab,eqjb->eqja", amat, grads) * wdet[..., None, None]
        else:
            avals = checked_field(raw, wdet.shape, "alpha")
            weighted = grads * (avals * wdet)[..., None, None]

        left = grads.transpose(0, 2, 1, 3).reshape(ne, nb, nq * 2)
        right = weighted.transpose(0, 2, 1, 3).reshape(ne, nb, nq * 2)
        local.append(left @ right.transpose(0, 2, 1))

    return _to_csr(space, local)


def assemble_nonsym(space: FeSpace, spec: ProblemSpec) -> sp.csr_matrix:
    """Assemble Npart[i, j] = integral of (beta . grad phi_j + gamma phi_j) phi_i."""
    quad = default_assembly_quadrature(space.degree)
    vals, ref_grads = tabulate_basis(space.element, quad.points)

    local = []
    for _, pts, wdet, inv in element_blocks(space, quad):
        grads = _physical_gradients(ref_grads, inv)
        x, y = pts[..., 0], pts[..., 1]
        bvals = checked_field(spec.beta(x, y), wdet.shape + (2,), "beta")
        gvals = checked_field(spec.gamma(x, y), wdet.shape, "gamma")

        trial = np.einsum("eqa,eqja->eqj", bvals, grads)
        trial += gvals[..., None] * vals[None, :, :]
        local.append(np.matmul(vals.T[None, :, :], trial * wdet[..., None]))

    return _to_csr(space, local)


def assemble_load(space: FeSpace, f) -> np.ndarray:
    """Assemble F[i] = integral of f phi_i."""
    quad = default_assembly_quadrature(space.degree)
    vals, _ = tabulate_basis(space.element, quad.points)

    load = np.zeros(space.n_dofs_total)
    for block, pts, wdet, _ in element_blocks(space, quad):
        fvals = checked_field(f(pts[..., 0], pts[..., 1]), wdet.shape, "f")
        local = (fvals * wdet) @ vals                      # (e, n_local)
        load += np.bincount(
            space.cell_to_dofs[block].ravel(),
            weights=local.ravel(),
            minlength=space.n_dofs_total,
        )
    return load


def interior_block(matrix: sp.spmatrix, space: FeSpace) -> sp.csr_matrix:
    """Rows and columns of the interior DOFs of `space`.

    This is the elimination of a homogeneous Dirichlet condition: the
    dropped columns multiply zero boundary values, so right-hand sides only
    need restricting to the same DOFs.
    """
    interior = space.interior_dofs
    return matrix.tocsr()[interior, :][:, interior].tocsr()
