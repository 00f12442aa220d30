"""Continuous Lagrange finite element spaces with zero boundary trace.

Degrees of freedom of the degree-l space on an M-subdivision mesh live on the
global lattice of spacing 1/(l*M), numbered lexicographically by (y, x) just
like mesh vertices.  That makes the DOF map pure index arithmetic and makes
spaces on the same mesh (or on nested meshes) share lattice points exactly,
which the prolongation operators rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .element import MAX_DEGREE, ReferenceElement, build_reference_element, tabulate_basis
from .mesh import Mesh

# Basis values this small at a lattice point are roundoff from the nodal
# construction, not genuine couplings; dropping them keeps prolongation
# matrices at their structural sparsity.
_DROP_TOL = 1e-13


class CoefficientError(ValueError):
    """A coefficient or exact-solution callable returned values of the wrong
    shape or non-finite values."""


def checked_field(raw, shape, what: str) -> np.ndarray:
    """The values a callable returned, broadcast to `shape` and finite."""
    field = np.asarray(raw, dtype=float)
    try:
        field = np.broadcast_to(field, shape)
    except ValueError:
        raise CoefficientError(
            f"{what} returned shape {field.shape}, expected {shape}"
        ) from None
    if not np.isfinite(field).all():
        raise CoefficientError(f"{what} returned non-finite values")
    return field


@dataclass(frozen=True, eq=False)
class FeSpace:
    """A degree-`degree` Lagrange space on a structured mesh."""

    mesh: Mesh
    degree: int
    n_dofs_total: int
    dof_coordinates: np.ndarray  # (n_dofs_total, 2)
    cell_to_dofs: np.ndarray     # (n_triangles, n_local) global DOF per local node
    boundary_dofs: np.ndarray    # sorted indices of DOFs on the boundary
    element: ReferenceElement

    @cached_property
    def interior_dofs(self) -> np.ndarray:
        mask = np.ones(self.n_dofs_total, dtype=bool)
        mask[self.boundary_dofs] = False
        return np.flatnonzero(mask)


def dof_count(M: int, degree: int) -> int:
    """Number of global DOFs, boundary included: (degree*M + 1)**2."""
    if M < 1:
        raise ValueError(f"subdivision count must be positive, got {M}")
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"polynomial degree must be in [1, {MAX_DEGREE}], got {degree}")
    return (degree * M + 1) ** 2


def build_space(mesh: Mesh, degree: int) -> FeSpace:
    """Build the degree-`degree` Lagrange space on `mesh`."""
    element = build_reference_element(degree)
    M = mesh.M
    n = degree * M  # lattice subdivisions per axis
    n_dofs = (n + 1) ** 2

    axis = np.arange(n + 1, dtype=float) / n
    xg, yg = np.meshgrid(axis, axis)
    dof_coordinates = np.column_stack([xg.ravel(), yg.ravel()])

    on_edge = np.zeros((n + 1, n + 1), dtype=bool)
    on_edge[0, :] = on_edge[-1, :] = on_edge[:, 0] = on_edge[:, -1] = True
    boundary_dofs = np.flatnonzero(on_edge.ravel())

    # Local nodes of the reference element in lattice steps.  Each triangle
    # maps node (p, q) to first_vertex + p*edge1 + q*edge2 in lattice units,
    # and both edges of every triangle are lattice vectors, so the image is
    # pure integer arithmetic.  For the "down" split of cell (ci, cj): the
    # lower-left triangle gives (ci*degree + p, cj*degree + q) and the
    # upper-right one ((ci+1)*degree - q, cj*degree + p + q).  For the "up"
    # split: lower-right (ci*degree + p + q, cj*degree + q), upper-left
    # (ci*degree + p, cj*degree + p + q).
    offs = np.rint(element.nodes * degree).astype(np.int64)  # (n_local, 2)
    p, q = offs[:, 0], offs[:, 1]

    cells = np.arange(M * M, dtype=np.int64)
    ci = cells % M
    cj = cells // M
    bx = ci * degree
    by = cj * degree

    if mesh.diagonal == "down":
        first_x = bx[:, None] + p[None, :]
        first_y = by[:, None] + q[None, :]
        second_x = bx[:, None] + degree - q[None, :]
        second_y = by[:, None] + (p + q)[None, :]
    else:
        first_x = bx[:, None] + (p + q)[None, :]
        first_y = by[:, None] + q[None, :]
        second_x = bx[:, None] + p[None, :]
        second_y = by[:, None] + (p + q)[None, :]

    cell_to_dofs = np.empty((2 * M * M, len(p)), dtype=np.int64)
    cell_to_dofs[0::2] = first_y * (n + 1) + first_x
    cell_to_dofs[1::2] = second_y * (n + 1) + second_x

    return FeSpace(
        mesh=mesh,
        degree=degree,
        n_dofs_total=n_dofs,
        dof_coordinates=dof_coordinates,
        cell_to_dofs=cell_to_dofs,
        boundary_dofs=boundary_dofs,
        element=element,
    )


def interpolate(space: FeSpace, g) -> np.ndarray:
    """Nodal interpolant of the callable g(x, y) as a coefficient vector.

    g is an exact solution in every run, so a wrong shape or a non-finite
    value raises CoefficientError naming exact_u.
    """
    x = space.dof_coordinates[:, 0]
    y = space.dof_coordinates[:, 1]
    return checked_field(g(x, y), (space.n_dofs_total,), "exact_u").copy()


def locate_points(mesh: Mesh, points: np.ndarray):
    """Find the mesh triangle containing each point, with reference coords.

    Points on shared edges are assigned to one of the adjacent triangles;
    continuity of the spaces makes the choice irrelevant for evaluation.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    M = mesh.M
    u = pts[:, 0] * M
    v = pts[:, 1] * M
    ci = np.clip(np.floor(u).astype(np.int64), 0, M - 1)
    cj = np.clip(np.floor(v).astype(np.int64), 0, M - 1)
    fx = u - ci
    fy = v - cj
    if mesh.diagonal == "down":
        in_first = fx + fy <= 1.0 + 1e-12
        xi = np.where(in_first, fx, fx + fy - 1.0)
        eta = np.where(in_first, fy, 1.0 - fx)
    else:
        in_first = fy <= fx + 1e-12
        xi = np.where(in_first, fx - fy, fx)
        eta = np.where(in_first, fy, fy - fx)
    cell_index = 2 * (cj * M + ci) + (~in_first)
    return cell_index, np.column_stack([xi, eta])


def evaluate(space: FeSpace, coefficients: np.ndarray, points) -> np.ndarray:
    """Evaluate the finite element function at arbitrary physical points."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (space.n_dofs_total,):
        raise ValueError(
            f"expected {space.n_dofs_total} coefficients, got shape {coefficients.shape}"
        )
    cell_index, ref = locate_points(space.mesh, points)
    values, _ = tabulate_basis(space.element, ref)
    local = coefficients[space.cell_to_dofs[cell_index]]
    return np.einsum("pi,pi->p", values, local)


@dataclass(frozen=True, eq=False)
class Prolongation:
    """Sparse interpolation operator from a source space into a finer one."""

    source: FeSpace
    target: FeSpace
    matrix: sp.csr_matrix  # (target.n_dofs_total, source.n_dofs_total)


def build_prolongation(source: FeSpace, target: FeSpace) -> Prolongation:
    """Interpolation matrix P with P[j, i] = (source basis i)(target DOF j).

    Supported pairs: same mesh with source.degree <= target.degree, or the
    target mesh an integer refinement of the source mesh with equal degrees.
    In both cases the source space is a subspace of the target space, so P
    reproduces source functions exactly.
    """
    if target.mesh.diagonal != source.mesh.diagonal:
        raise ValueError(
            "prolongation needs matching diagonal orientations, got "
            f"{source.mesh.diagonal!r} -> {target.mesh.diagonal!r}"
        )
    same_mesh = target.mesh.M == source.mesh.M
    nested = target.mesh.M % source.mesh.M == 0
    if same_mesh:
        if source.degree > target.degree:
            raise ValueError(
                "same-mesh prolongation needs source degree <= target degree, "
                f"got {source.degree} -> {target.degree}"
            )
    elif nested:
        if source.degree != target.degree:
            raise ValueError(
                "nested-mesh prolongation needs equal degrees, "
                f"got {source.degree} -> {target.degree}"
            )
    else:
        raise ValueError(
            f"target mesh (M={target.mesh.M}) is not a refinement of the "
            f"source mesh (M={source.mesh.M})"
        )

    cell_index, ref = locate_points(source.mesh, target.dof_coordinates)
    values, _ = tabulate_basis(source.element, ref)  # (n_target, n_local)
    n_local = values.shape[1]
    rows = np.repeat(np.arange(target.n_dofs_total, dtype=np.int64), n_local)
    cols = source.cell_to_dofs[cell_index].ravel()
    data = values.ravel()

    keep = np.abs(data) > _DROP_TOL
    matrix = sp.coo_matrix(
        (data[keep], (rows[keep], cols[keep])),
        shape=(target.n_dofs_total, source.n_dofs_total),
    ).tocsr()
    matrix.sort_indices()
    return Prolongation(source=source, target=target, matrix=matrix)
