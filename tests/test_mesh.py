"""Mesh construction: counts, geometry, nesting, rejection paths."""

import numpy as np
import pytest

from twolevelfem import build_structured_mesh, refine_nested
from twolevelfem.mesh import lattice

DIAGONALS = ["down", "up"]


@pytest.mark.parametrize("diagonal", DIAGONALS)
@pytest.mark.parametrize("M", [1, 2, 4, 9, 16])
def test_entity_counts(M, diagonal):
    mesh = build_structured_mesh(M, diagonal=diagonal)
    assert len(mesh.vertices) == (M + 1) ** 2
    assert mesh.n_triangles == 2 * M * M
    # Euler relation for the triangulated square.
    assert mesh.edges.shape[0] == (M + 1) ** 2 + 2 * M * M - 1
    assert mesh.M == M
    # The grid cells have side 1/M.
    assert np.diff(np.unique(mesh.vertices[:, 0])) == pytest.approx(np.full(M, 1.0 / M))


def test_smallest_mesh_counts():
    mesh = build_structured_mesh(1)
    assert (len(mesh.vertices), mesh.n_triangles, mesh.edges.shape[0]) == (4, 2, 5)
    # Vertex and triangle numbering of the smallest "down" mesh.
    assert mesh.vertices.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert mesh.triangles.tolist() == [[0, 1, 2], [1, 3, 2]]


def test_quarter_mesh_counts():
    mesh = build_structured_mesh(4)
    assert (len(mesh.vertices), mesh.n_triangles) == (25, 32)


def test_m9_counts():
    mesh = build_structured_mesh(9)
    assert (len(mesh.vertices), mesh.n_triangles) == (100, 162)


@pytest.mark.parametrize("diagonal", DIAGONALS)
@pytest.mark.parametrize("M", [1, 3, 7])
def test_areas_uniform_and_positive(M, diagonal):
    mesh = build_structured_mesh(M, diagonal=diagonal)
    areas = 0.5 * mesh.affine[2]
    assert np.all(areas > 0)  # counterclockwise orientation
    assert np.allclose(areas, 1.0 / (2 * M * M), rtol=0, atol=1e-15)
    assert abs(areas.sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("diagonal,slope", [("down", -1.0), ("up", 1.0)])
def test_right_triangles_with_axis_legs(diagonal, slope):
    mesh = build_structured_mesh(3, diagonal=diagonal)
    for tri in mesh.triangles:
        pts = mesh.vertices[tri]
        slopes = []
        for a in range(3):
            d = pts[(a + 1) % 3] - pts[a]
            if d[0] == 0.0 or d[1] == 0.0:
                slopes.append(None)  # axis-aligned leg
            else:
                slopes.append(d[1] / d[0])
        hyps = [s for s in slopes if s is not None]
        assert len(hyps) == 1
        assert hyps[0] == pytest.approx(slope)


def test_vertex_ordering_lexicographic():
    M = 5
    mesh = build_structured_mesh(M)
    for j in range(M + 1):
        for i in range(M + 1):
            v = mesh.vertices[j * (M + 1) + i]
            assert v[0] == pytest.approx(i / M, abs=1e-16)
            assert v[1] == pytest.approx(j / M, abs=1e-16)


@pytest.mark.parametrize("diagonal", DIAGONALS)
def test_boundary_flags(diagonal):
    M = 6
    mesh = build_structured_mesh(M, diagonal=diagonal)
    on_boundary = (
        (mesh.vertices[:, 0] == 0.0)
        | (mesh.vertices[:, 0] == 1.0)
        | (mesh.vertices[:, 1] == 0.0)
        | (mesh.vertices[:, 1] == 1.0)
    )
    assert np.array_equal(lattice(M)[1], on_boundary)
    assert lattice(M)[1].sum() == 4 * M


def test_refine_identity():
    mesh = build_structured_mesh(2)
    fine = refine_nested(mesh, 1)
    assert np.array_equal(fine.vertices, mesh.vertices)
    assert np.array_equal(fine.triangles, mesh.triangles)


@pytest.mark.parametrize("diagonal", DIAGONALS)
def test_coarse_vertices_are_fine_vertices(diagonal):
    coarse = build_structured_mesh(3, diagonal=diagonal)
    fine = refine_nested(coarse, 4)
    assert fine.M == 12
    assert fine.diagonal == diagonal
    # Every coarse vertex appears among the fine vertices.
    for v in coarse.vertices:
        dist = np.abs(fine.vertices - v).max(axis=1)
        assert dist.min() <= 1e-12


def _containing_triangle(mesh, point):
    """Index of the triangle containing `point`, by barycentric sign checks."""
    hits = []
    for t, tri in enumerate(mesh.triangles):
        a, b, c = mesh.vertices[tri]
        mat = np.column_stack([b - a, c - a])
        lam = np.linalg.solve(mat, point - a)
        if lam[0] >= -1e-12 and lam[1] >= -1e-12 and lam.sum() <= 1 + 1e-12:
            hits.append(t)
    return hits


@pytest.mark.parametrize("diagonal", DIAGONALS)
@pytest.mark.parametrize("M,r", [(2, 2), (3, 3)])
def test_nested_containment(M, r, diagonal):
    coarse = build_structured_mesh(M, diagonal=diagonal)
    fine = refine_nested(coarse, r)
    centroids = fine.vertices[fine.triangles].mean(axis=1)
    fibers = np.zeros(coarse.n_triangles, dtype=int)
    for p in centroids:
        hits = _containing_triangle(coarse, p)
        # A centroid is strictly interior to exactly one coarse triangle.
        assert len(hits) == 1
        fibers[hits[0]] += 1
    assert np.all(fibers == r * r)


def test_refine_matches_square_relation():
    coarse = build_structured_mesh(9)
    fine = refine_nested(coarse, 9)
    assert fine.M == 81
    assert fine.M == coarse.M**2


@pytest.mark.parametrize("bad", [0, -3, 4097])
def test_rejects_bad_sizes(bad):
    with pytest.raises(ValueError, match=rf"subdivision count must be in \[1, 4096\], got {bad}$"):
        build_structured_mesh(bad)


def test_rejects_non_integer():
    with pytest.raises(ValueError, match="subdivision count must be an integer, got 2.5"):
        build_structured_mesh(2.5)


def test_rejects_bad_diagonal():
    with pytest.raises(ValueError):
        build_structured_mesh(2, diagonal="left")


def test_rejects_bad_refinement_factor():
    mesh = build_structured_mesh(2)
    with pytest.raises(ValueError, match="refinement factor must be a positive integer, got 0"):
        refine_nested(mesh, 0)
    with pytest.raises(ValueError, match="refinement factor must be a positive integer, got 2.5"):
        refine_nested(mesh, 2.5)
    with pytest.raises(ValueError, match=r"subdivision count must be in \[1, 4096\], got 10000"):
        refine_nested(mesh, 5000)
