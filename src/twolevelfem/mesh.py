"""Structured triangulations of the unit square.

The unit square (0,1)^2 is cut into an M-by-M grid of cells of side 1/M and
every cell is split into two triangles along a diagonal.  The default
orientation is the slope -1 diagonal ("down"); the slope +1 alternative
("up") is available through the `diagonal` argument.  This module is the one
owner of that split and of the geometry it implies: the triangles (only
`build_structured_mesh` knows their vertex order), the numbering of lattice
points that vertices and DOF maps share (`lattice`), each triangle's affine map
from the reference triangle (`Mesh.affine`, computed once per mesh and read
by assembly and the H1 norms).  Spaces derive their DOF maps from
`Mesh.triangles`.  Meshes are immutable and safe to share across threads; a
refined mesh never mutates the mesh it came from.  Every refusal, of a size,
a diagonal, a refinement factor or a clockwise triangle, is a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Mesh", "build_structured_mesh", "refine_nested"]

MAX_SUBDIVISIONS = 4096


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulation of the unit square into 2*M^2 right triangles.

    Vertices are numbered row by row (lexicographically by (y, x)), so the
    vertex with index j*(M+1)+i sits at (i/M, j/M).  Each cell contributes
    two counterclockwise triangles, with cells enumerated row by row.  With
    the default "down" diagonal (slope -1) triangle 2*c is the lower-left
    one of cell c and 2*c+1 the upper-right one; with the "up" diagonal
    (slope +1) they are the lower-right and upper-left ones.
    """

    M: int
    vertices: np.ndarray             # (n_vertices, 2) float
    triangles: np.ndarray            # (n_triangles, 3) int, counterclockwise
    diagonal: str = "down"           # "down" (slope -1) or "up" (slope +1)

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def edges(self) -> np.ndarray:
        """(n_edges, 2) int vertex pairs, each pair sorted."""
        pairs = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        return np.unique(pairs, axis=0)

    @cached_property
    def affine(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each triangle's map x = v0 + J xi from the reference triangle:
        first vertices v0 (n, 2), Jacobians J (n, 2, 2), determinants (n,)
        and inverse Jacobians (n, 2, 2).

        Raises ValueError if any triangle is degenerate or clockwise.
        """
        v0 = self.vertices[self.triangles[:, 0]]
        d1 = self.vertices[self.triangles[:, 1]] - v0
        d2 = self.vertices[self.triangles[:, 2]] - v0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 0.0):
            bad = int(np.argmax(det <= 0.0))
            raise ValueError(
                f"triangle {bad} has non-positive Jacobian determinant {det[bad]:.3e}"
            )
        jac = np.stack([d1, d2], axis=-1)
        inv = np.stack([d2[:, 1], -d2[:, 0], -d1[:, 1], d1[:, 0]], -1).reshape(-1, 2, 2)
        inv /= det[:, None, None]
        return v0, jac, det, inv


def lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n+1)^2 points of spacing 1/n on the unit square, numbered
    lexicographically by (y, x), and the mask of those on the boundary."""
    side = np.arange(n + 1, dtype=float) / n
    xg, yg = np.meshgrid(side, side)  # row index is y
    on_edge = np.zeros((n + 1, n + 1), dtype=bool)
    on_edge[[0, -1], :] = on_edge[:, [0, -1]] = True
    return np.column_stack([xg.ravel(), yg.ravel()]), on_edge.ravel()


def build_structured_mesh(M: int, diagonal: str = "down") -> Mesh:
    """Build the structured triangulation with M subdivisions per axis.

    `diagonal` picks the cell split: "down" cuts along the slope -1
    diagonal, "up" along the slope +1 diagonal.
    """
    if not isinstance(M, (int, np.integer)):
        raise ValueError(f"subdivision count must be an integer, got {M!r}")
    if M < 1 or M > MAX_SUBDIVISIONS:
        raise ValueError(
            f"subdivision count must be in [1, {MAX_SUBDIVISIONS}], got {M}"
        )
    if diagonal not in ("down", "up"):
        raise ValueError(f"diagonal must be 'down' or 'up', got {diagonal!r}")
    M = int(M)

    vertices, _ = lattice(M)

    idx = np.arange((M + 1) * (M + 1), dtype=np.int64).reshape(M + 1, M + 1)
    ll = idx[:-1, :-1].ravel()
    lr = idx[:-1, 1:].ravel()
    ul = idx[1:, :-1].ravel()
    ur = idx[1:, 1:].ravel()

    triangles = np.empty((2 * M * M, 3), dtype=np.int64)
    if diagonal == "down":
        triangles[0::2] = np.column_stack([ll, lr, ul])  # lower-left triangle
        triangles[1::2] = np.column_stack([lr, ur, ul])  # upper-right triangle
    else:
        triangles[0::2] = np.column_stack([ll, lr, ur])  # lower-right triangle
        triangles[1::2] = np.column_stack([ll, ur, ul])  # upper-left triangle

    return Mesh(M=M, vertices=vertices, triangles=triangles, diagonal=diagonal)


def refine_nested(coarse: Mesh, r: int) -> Mesh:
    """Refine each cell r times per axis, giving a mesh nested in `coarse`.

    Because both meshes split their cells along the same diagonal, every
    coarse triangle is the union of exactly r^2 fine triangles.
    """
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"refinement factor must be a positive integer, got {r!r}")
    return build_structured_mesh(coarse.M * int(r), diagonal=coarse.diagonal)
