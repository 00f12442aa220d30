"""Structured triangulations of the unit square.

The unit square (0,1)^2 is cut into an M-by-M grid of cells of side 1/M and
every cell is split into two triangles along a diagonal.  The default
orientation is the slope -1 diagonal ("down"); the slope +1 alternative
("up") is available through the `diagonal` argument.  This module is the one
owner of that split: the triangles and their vertex order, the lexicographic
numbering of lattice points that vertices and DOFs share (`lattice`), and
point location (`locate_points`).  Finite element spaces derive their DOF
maps from `Mesh.triangles`.  Meshes built here are plain immutable
containers; a refined mesh never mutates the mesh it came from, so meshes can
be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_SUBDIVISIONS = 4096

_SLACK = 1e-12  # roundoff allowed at cell diagonals and the square's boundary


class MeshSizeError(ValueError):
    """Requested subdivision count is outside the supported range."""


class MeshGeometryError(ValueError):
    """A triangle with non-positive signed area was encountered."""


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
    boundary_vertex_flags: np.ndarray  # (n_vertices,) bool
    diagonal: str = "down"           # "down" (slope -1) or "up" (slope +1)

    @property
    def H(self) -> float:
        """Mesh size, the side length 1/M of the grid cells."""
        return 1.0 / self.M

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def _edge_counts(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = np.concatenate(
            [self.triangles[:, [0, 1]], self.triangles[:, [1, 2]], self.triangles[:, [2, 0]]]
        )
        pairs.sort(axis=1)
        return np.unique(pairs, axis=0, return_counts=True)

    @cached_property
    def edges(self) -> np.ndarray:
        """(n_edges, 2) int vertex pairs, each pair sorted."""
        return self._edge_counts[0]

    @cached_property
    def boundary_edge_flags(self) -> np.ndarray:
        """(n_edges,) bool: the edges of only one triangle."""
        return self._edge_counts[1] == 1

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


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
        raise MeshSizeError(f"subdivision count must be an integer, got {M!r}")
    if M < 1 or M > MAX_SUBDIVISIONS:
        raise MeshSizeError(
            f"subdivision count must be in [1, {MAX_SUBDIVISIONS}], got {M}"
        )
    if diagonal not in ("down", "up"):
        raise ValueError(f"diagonal must be 'down' or 'up', got {diagonal!r}")
    M = int(M)

    vertices, boundary_vertex_flags = lattice(M)

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

    return Mesh(
        M=M,
        vertices=vertices,
        triangles=triangles,
        boundary_vertex_flags=boundary_vertex_flags,
        diagonal=diagonal,
    )


def refine_nested(coarse: Mesh, r: int) -> Mesh:
    """Refine each cell r times per axis, giving a mesh nested in `coarse`.

    Because both meshes split their cells along the same diagonal, every
    coarse triangle is the union of exactly r^2 fine triangles.
    """
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"refinement factor must be a positive integer, got {r!r}")
    return build_structured_mesh(coarse.M * int(r), diagonal=coarse.diagonal)


def locate_points(mesh: Mesh, points: np.ndarray):
    """Find the mesh triangle containing each point, with reference coords.

    The reference coordinates (xi, eta) are those of the triangle's vertex
    order as built by build_structured_mesh.  Points on shared edges are
    assigned to one of the adjacent triangles; continuity of the spaces
    makes the choice irrelevant for evaluation.  A non-finite point, or one
    outside the closed unit square by more than roundoff, raises ValueError.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    outside = ~np.all((pts >= -_SLACK) & (pts <= 1.0 + _SLACK), axis=1)
    if outside.any():
        x, y = pts[np.argmax(outside)].tolist()
        raise ValueError(f"point ({x!r}, {y!r}) is not in the closed unit square")
    M = mesh.M
    u = pts[:, 0] * M
    v = pts[:, 1] * M
    ci = np.clip(np.floor(u).astype(np.int64), 0, M - 1)
    cj = np.clip(np.floor(v).astype(np.int64), 0, M - 1)
    fx = u - ci
    fy = v - cj
    if mesh.diagonal == "down":
        in_first = fx + fy <= 1.0 + _SLACK
        xi = np.where(in_first, fx, fx + fy - 1.0)
        eta = np.where(in_first, fy, 1.0 - fx)
    else:
        in_first = fy <= fx + _SLACK
        xi = np.where(in_first, fx - fy, fx)
        eta = np.where(in_first, fy, fy - fx)
    cell_index = 2 * (cj * M + ci) + (~in_first)
    return cell_index, np.column_stack([xi, eta])
