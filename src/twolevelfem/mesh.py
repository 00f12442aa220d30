"""Structured triangulations of the unit square.

The unit square (0,1)^2 is cut into an M-by-M grid of cells of side 1/M and
every cell is split into two triangles along a diagonal.  The default
orientation is the slope -1 diagonal ("down"); the slope +1 alternative
("up") is available through the `diagonal` argument.  Meshes built here are
plain immutable containers; a refined mesh never mutates the mesh it came
from, so meshes can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_SUBDIVISIONS = 4096


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

    side = np.arange(M + 1, dtype=float) / M
    xg, yg = np.meshgrid(side, side)  # row index is y
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

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

    on_edge = np.zeros((M + 1, M + 1), dtype=bool)
    on_edge[0, :] = on_edge[-1, :] = on_edge[:, 0] = on_edge[:, -1] = True
    boundary_vertex_flags = on_edge.ravel()

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
