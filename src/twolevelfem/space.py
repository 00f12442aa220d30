"""Continuous Lagrange finite element spaces with zero boundary trace.

Degrees of freedom of the degree-l space on an M-subdivision mesh live on the
global lattice of spacing 1/(l*M), whose points are numbered lexicographically
by (y, x) just like mesh vertices (`mesh.lattice`); `dof_count` is the one
check of an (M, degree) pair.  The DOF map follows `mesh.triangles` by integer
arithmetic on lattice numbers, so it holds for any vertex order or cell split
the mesh chooses; only `build_prolongation` reads the split, to check that two
meshes share it.  Spaces on the same mesh (or on nested meshes) share lattice
points exactly, so a prolongation is one reference table read through it.
DOFs are numbered in the order a sparse LU eliminates them: the interior
points first, so every interior (Dirichlet) block is a leading block ready to
factor, then the boundary points (`FeSpace.numbering`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .element import MAX_DEGREE, ReferenceElement, build_reference_element, lattice_nodes
from .element import tabulate_basis
from .mesh import Mesh, lattice

__all__ = ["CoefficientError", "FeSpace", "Prolongation", "build_prolongation", "build_space",
           "dof_count", "interpolate"]

# Basis values this small at a lattice point are roundoff from the nodal
# construction, not genuine couplings; dropping them keeps prolongation
# matrices at their structural sparsity.
_DROP_TOL = 1e-13


class CoefficientError(ValueError):
    """A coefficient or exact-solution callable raised, or returned values of
    the wrong shape, complex values or non-finite values."""


def checked_field(fn, pts: np.ndarray, shape, what: str, matrix: bool = False) -> np.ndarray:
    """fn(x, y) at the points pts (..., 2), broadcast to `shape` and finite.

    With `matrix`, values whose last two axes are (2, 2) are broadcast to
    shape + (2, 2) instead.  Any exception fn raises, a wrong shape and a
    non-finite value all raise CoefficientError naming `what`, and so do
    complex values, which a float cast would truncate to their real part.
    """
    try:
        field = np.asarray(fn(pts[..., 0], pts[..., 1]))
        if not np.iscomplexobj(field):
            field = field.astype(float, copy=False)
    except Exception as exc:
        raise CoefficientError(f"{what} raised {type(exc).__name__}: {exc}") from None
    if np.iscomplexobj(field):
        raise CoefficientError(f"{what} returned complex values")
    if matrix and field.shape[-2:] == (2, 2):
        shape = shape + (2, 2)
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
    numbering: np.ndarray        # (n_dofs_total,) DOF of each lattice point
    element: ReferenceElement

    @property
    def n_interior(self) -> int:
        """Number of DOFs off the boundary, which lead the numbering."""
        return (self.degree * self.mesh.M - 1) ** 2


def dof_count(M: int, degree: int) -> int:
    """Number of global DOFs, boundary included: (degree*M + 1)**2.  The one
    check of a space's size: integers M >= 1 and degree in [1, MAX_DEGREE]."""
    if not all(isinstance(n, (int, np.integer)) for n in (M, degree)):
        raise ValueError(f"subdivision count and degree must be integers, got {M!r}, {degree!r}")
    if M < 1:
        raise ValueError(f"subdivision count must be positive, got {M}")
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"polynomial degree must be in [1, {MAX_DEGREE}], got {degree}")
    return (int(degree) * int(M) + 1) ** 2


def _lattice_dofs(mesh: Mesh, degree: int) -> np.ndarray:
    """Each triangle's `lattice_nodes(degree)` as numbers on the lattice of
    spacing 1/n, n = degree*M, (n_triangles, n_local).  Vertex j*(M+1)+i is
    point degree*w with w = j*(n+1)+i, and numbers are affine in coordinates,
    so node (p, q) of triangle (a, b, c) is (degree-p-q)*w_a + p*w_b + q*w_c,
    exact in integers for any vertex order."""
    n = degree * mesh.M
    j, i = np.divmod(mesh.triangles, mesh.M + 1)
    p, q = lattice_nodes(degree).T
    return (j * (n + 1) + i) @ np.stack([degree - p - q, p, q])


def _elimination_order(mesh: Mesh, degree: int, lattice_dofs: np.ndarray) -> np.ndarray:
    """The lattice points off the boundary in the order SuperLU eliminates
    them, given each triangle's lattice points `lattice_dofs`.  First each
    triangle's bubble nodes, triangle by triangle: they couple only inside
    their triangle, so eliminating them adds no fill outside it (static
    condensation).  Then the rest by nested dissection of the M x M cells
    (George, SIAM J. Numer. Anal. 1973): cut along the mesh line x = c/M or
    y = c/M across the longer side, number the cut after both halves, and
    recurse down to single cells, which hold the inner nodes that their two
    triangles share.  A region's order is a translated copy of the order of any
    region of its shape, and bisection makes at most two widths and two
    heights per level, so each shape is built once, from its halves.
    Offsets are int32, exact below (6 * 4096 + 1)**2 < 2**31."""
    d, M = degree, mesh.M
    p, q = lattice_nodes(d).T
    row = d * M + 1  # lattice points per row
    # Triangles 0 and 1 split cell 0, whose lower-left corner is point 0.
    shapes = {(1, 1): np.intersect1d(*lattice_dofs[:2])[1:-1].astype(np.int32)}

    def region(w, h):
        """The inner nodes of a w x h cell region that are not bubbles, in
        order, as lattice offsets from the region's lower-left corner."""
        if (w, h) not in shapes:
            if w >= h:  # cut along x = c/M
                c = w // 2
                cut = c * d + row * np.arange(1, h * d, dtype=np.int32)
                shapes[w, h] = np.concatenate([region(c, h), region(w - c, h) + c * d, cut])
            else:  # cut along y = c/M
                c = h // 2
                cut = c * d * row + np.arange(1, w * d, dtype=np.int32)
                shapes[w, h] = np.concatenate([region(w, c), region(w, h - c) + c * d * row, cut])
        return shapes[w, h]

    bubbles = lattice_dofs[:, (p > 0) & (q > 0) & (p + q < d)]
    return np.concatenate([bubbles.ravel(), region(M, M)])


def build_space(mesh: Mesh, degree: int) -> FeSpace:
    """Build the degree-`degree` Lagrange space on `mesh`, its DOFs numbered
    interior lattice points first, in elimination order, then boundary ones."""
    element = build_reference_element(degree)
    coordinates, on_boundary = lattice(degree * mesh.M)
    lattice_dofs = _lattice_dofs(mesh, degree)
    points = np.concatenate([_elimination_order(mesh, degree, lattice_dofs),
                             np.flatnonzero(on_boundary)])
    numbering = np.empty_like(points)
    numbering[points] = np.arange(len(points))
    return FeSpace(
        mesh=mesh,
        degree=degree,
        n_dofs_total=len(points),
        dof_coordinates=coordinates.take(points, axis=0),  # 10x faster than [points] here
        cell_to_dofs=numbering[lattice_dofs],
        numbering=numbering,
        element=element,
    )


def interpolate(space: FeSpace, g) -> np.ndarray:
    """Nodal interpolant of the callable g(x, y) as a coefficient vector.

    g is an exact solution in every run, so an exception, a wrong shape or
    a non-finite value raises CoefficientError naming exact_u.
    """
    return checked_field(g, space.dof_coordinates, (space.n_dofs_total,), "exact_u").copy()


@dataclass(frozen=True, eq=False)
class Prolongation:
    """Sparse interpolation operator from a source space into a finer one."""

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
    r, rest = divmod(target.mesh.M, source.mesh.M)
    if rest:
        raise ValueError(
            f"target mesh (M={target.mesh.M}) is not a refinement of the "
            f"source mesh (M={source.mesh.M})"
        )
    if not source.degree <= target.degree <= (source.degree if r > 1 else MAX_DEGREE):
        raise ValueError(
            "prolongation needs source degree <= target degree on the same mesh and "
            f"equal degrees on a refined one, got {source.degree} -> {target.degree} "
            f"at refinement {r}"
        )

    # Each source triangle holds the target DOFs at the same reference
    # points, the nodes (p, q)/D of the degree-D lattice, whatever its shape
    # or vertex order: one table of source basis values serves them all.
    D = target.degree * r
    values, _ = tabulate_basis(source.element, lattice_nodes(D) / D)  # (n_nodes, n_local)
    # A target DOF on several triangles takes the row of its first one.
    n_nodes, n_local = values.shape
    first = np.unique(target.numbering[_lattice_dofs(source.mesh, D)], return_index=True)[1]
    triangle, node = np.divmod(first, n_nodes)
    data = values[node].ravel()
    data[np.abs(data) <= _DROP_TOL] = 0.0
    matrix = sp.csr_matrix(
        (data, source.cell_to_dofs[triangle].ravel(),
         np.arange(target.n_dofs_total + 1) * n_local),
        shape=(target.n_dofs_total, source.n_dofs_total),
    )
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return Prolongation(matrix=matrix)
