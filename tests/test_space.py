"""Global spaces: DOF counts, conformity, interpolation, prolongation."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twolevelfem import (
    Mesh,
    build_prolongation,
    build_space,
    build_structured_mesh,
    dof_count,
    interpolate,
    refine_nested,
)
from twolevelfem.element import lattice_nodes, tabulate_basis
from twolevelfem.mesh import lattice


def evaluate(space, coefficients, points):
    """The finite element function at physical points, an oracle for the
    prolongation and the DOF maps: each point goes into both triangles of
    its cell through the inverse affine maps, and the triangle where its
    smallest barycentric coordinate is largest evaluates it."""
    pts = np.asarray(points, dtype=float)
    M = space.mesh.M
    ci, cj = np.clip(np.floor(pts * M).astype(np.int64), 0, M - 1).T
    v0, _, _, inv = space.mesh.affine
    pair = 2 * (cj * M + ci)[:, None] + np.arange(2)                   # (n, 2)
    ref = np.einsum("ntab,ntb->nta", inv[pair], pts[:, None] - v0[pair])
    best = np.argmax(np.minimum(ref.min(axis=2), 1.0 - ref.sum(axis=2)), axis=1)
    rows = np.arange(len(pts))
    values, _ = tabulate_basis(space.element, ref[rows, best])
    return np.einsum("pi,pi->p", values, coefficients[space.cell_to_dofs[pair[rows, best]]])


def rotated_mesh(M, diagonal):
    """The structured mesh with every vertex triple rotated by one or two
    places (still counterclockwise), so no triangle starts at the vertex
    build_structured_mesh puts first."""
    standard = build_structured_mesh(M, diagonal=diagonal)
    shift = 1 + np.arange(standard.n_triangles)[:, None] % 2
    rotated = np.take_along_axis(standard.triangles, (np.arange(3) + shift) % 3, axis=1)
    assert not (rotated == standard.triangles).all(axis=1).any()
    return Mesh(M=M, vertices=standard.vertices, triangles=rotated, diagonal=diagonal)


MESHES = {"standard": build_structured_mesh, "rotated": rotated_mesh}
MESH_CASES = [(kind, diagonal) for kind in MESHES for diagonal in ("down", "up")]


def test_dof_count_closed_form():
    for M in (1, 2, 3, 4, 5, 8, 16, 32):
        for degree in range(1, 7):
            assert dof_count(M, degree) == (degree * M + 1) ** 2


@pytest.mark.parametrize(
    "M,degree,expected",
    [
        (9, 3, 784),
        (9, 4, 1369),
        (10, 5, 2601),
        (12, 6, 5329),
        (81, 3, 59536),
        (1, 1, 4),
    ],
)
def test_dof_count_reference_values(M, degree, expected):
    assert dof_count(M, degree) == expected


def test_dof_count_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dof_count(0, 3)
    with pytest.raises(ValueError):
        dof_count(4, 0)
    with pytest.raises(ValueError):
        dof_count(4, 7)
    with pytest.raises(ValueError):
        dof_count(3, 2.5)
    with pytest.raises(ValueError):
        dof_count(2.5, 2)
    assert dof_count(np.int64(3), np.int64(3)) == 100


@pytest.mark.parametrize("diagonal", ["down", "up"])
@pytest.mark.parametrize("M,degree", [(1, 1), (2, 3), (4, 2), (9, 3), (3, 6)])
def test_space_counts(M, degree, diagonal):
    space = build_space(build_structured_mesh(M, diagonal=diagonal), degree)
    assert space.n_dofs_total == dof_count(M, degree)
    on_boundary = ((space.dof_coordinates == 0.0) | (space.dof_coordinates == 1.0)).any(axis=1)
    assert on_boundary.sum() == 4 * degree * M
    assert space.n_interior == space.n_dofs_total - 4 * degree * M


def test_unit_cell_space_all_boundary():
    space = build_space(build_structured_mesh(1), 1)
    assert space.n_dofs_total == 4
    assert space.n_interior == 0


def lattice_order(space):
    """The elimination order of the interior lattice points, as lattice
    numbers, written as a recursion: each triangle's bubble nodes, then the
    skeleton of the cell grid by nested dissection along mesh lines, each
    separator after both halves."""
    d, M = space.degree, space.mesh.M
    n = d * M
    bubble = [p > 0 and q > 0 and p + q < d for p, q in lattice_nodes(d)]
    # The lattice number of each DOF, read off its coordinates.
    number = np.rint(space.dof_coordinates * n).astype(np.int64) @ np.array([1, n + 1])
    bubbles = [number[dof] for dofs in space.cell_to_dofs for dof, b in zip(dofs, bubble) if b]

    def point(i, j):
        return j * (n + 1) + i

    def region(x0, x1, y0, y1):
        w, h = x1 - x0, y1 - y0
        if w == h == 1:  # the inner nodes of the cell's diagonal
            if space.mesh.diagonal == "down":
                return sorted(point(x0 * d + d - t, y0 * d + t) for t in range(1, d))
            return [point(x0 * d + t, y0 * d + t) for t in range(1, d)]
        if w >= h:
            c = x0 + w // 2
            return (region(x0, c, y0, y1) + region(c, x1, y0, y1)
                    + [point(c * d, j) for j in range(y0 * d + 1, y1 * d)])
        c = y0 + h // 2
        return (region(x0, x1, y0, c) + region(x0, x1, c, y1)
                + [point(i, c * d) for i in range(x0 * d + 1, x1 * d)])

    return np.array(bubbles + region(0, M, 0, M), dtype=np.int64)


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(sorted(MESHES)), st.sampled_from(["down", "up"]),
       st.integers(1, 13), st.integers(1, 6))
@example("standard", "down", 1, 1)       # no interior at all
@example("rotated", "up", 1, 6)          # one cell: bubbles and its diagonal
@example("standard", "up", 13, 1)        # no bubbles, no diagonal nodes
@example("rotated", "down", 13, 6)
def test_interior_dofs_are_the_lattice_elimination_order(kind, diagonal, M, degree):
    """The DOFs number the lattice points (DOF numbering[j] sits at lattice
    point j), those off the boundary first: the interior DOFs are 0..n_int-1
    and the boundary DOFs the rest.  The first 2 M^2 (d-1)(d-2)/2 DOFs are the points
    strictly inside the triangles, triangle by triangle, and the interior
    lattice points in DOF order equal the recursion."""
    space = build_space(MESHES[kind](M, diagonal), degree)
    n_int = (degree * M - 1) ** 2
    assert space.n_interior == n_int
    coords = space.dof_coordinates
    assert np.array_equal(coords[space.numbering], lattice(degree * M)[0])
    inside = ((coords > 0.0) & (coords < 1.0)).all(axis=1)
    assert inside[:n_int].all() and not inside[n_int:].any()
    per_triangle = (degree - 1) * (degree - 2) // 2
    bubbles = np.arange(space.mesh.n_triangles * per_triangle).reshape(space.mesh.n_triangles, -1)
    v0, _, _, inv = space.mesh.affine
    ref = np.einsum("tab,tnb->tna", inv, coords[bubbles] - v0[:, None])
    assert np.all(ref > 1e-12) and np.all(ref.sum(axis=2) < 1.0 - 1e-12)
    assert np.array_equal(np.argsort(space.numbering)[:n_int], lattice_order(space))


@pytest.mark.parametrize("diagonal", ["down", "up"])
@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_cell_dof_map_matches_geometry(degree, diagonal):
    """dof_coordinates[cell_to_dofs] must equal the affine image of the
    reference nodes: the index arithmetic has to agree with the geometry."""
    mesh = build_structured_mesh(3, diagonal=diagonal)
    space = build_space(mesh, degree)
    nodes = space.element.nodes
    for c in range(mesh.n_triangles):
        v = mesh.vertices[mesh.triangles[c]]
        mapped = v[0] + nodes @ np.array([v[1] - v[0], v[2] - v[0]])
        found = space.dof_coordinates[space.cell_to_dofs[c]]
        assert np.abs(found - mapped).max() <= 1e-12


@pytest.mark.parametrize("diagonal", ["down", "up"])
@pytest.mark.parametrize("degree", range(1, 7))
def test_dof_map_follows_the_triangles(degree, diagonal):
    """The DOF map is read off mesh.triangles: rotate every vertex triple by
    one or two places (still counterclockwise) and each local node still
    lands on the affine image of its reference node."""
    mesh = rotated_mesh(3, diagonal)
    space = build_space(mesh, degree)
    v = mesh.vertices[mesh.triangles]                                  # (t, 3, 2)
    mapped = v[:, None, 0] + np.einsum("la,tab->tlb", space.element.nodes, v[:, 1:] - v[:, :1])
    assert np.abs(space.dof_coordinates[space.cell_to_dofs] - mapped).max() <= 1e-12


def test_boundary_dofs_lie_on_boundary():
    space = build_space(build_structured_mesh(4), 3)
    coords = space.dof_coordinates[space.n_interior:]
    on_edge = (
        (coords[:, 0] == 0.0)
        | (coords[:, 0] == 1.0)
        | (coords[:, 1] == 0.0)
        | (coords[:, 1] == 1.0)
    )
    assert on_edge.all()
    inner = space.dof_coordinates[:space.n_interior]
    assert np.all((inner > 0.0).all(axis=1) & (inner < 1.0).all(axis=1))


def test_interpolate_zero():
    space = build_space(build_structured_mesh(3), 2)
    coeffs = interpolate(space, lambda x, y: np.zeros_like(x))
    assert np.array_equal(coeffs, np.zeros(space.n_dofs_total))


@pytest.mark.parametrize("diagonal", ["down", "up"])
def test_interpolate_linear_roundtrip(diagonal):
    space = build_space(build_structured_mesh(4, diagonal=diagonal), 1)
    coeffs = interpolate(space, lambda x, y: x + y)
    pts = np.random.default_rng(5).random((100, 2))
    values = evaluate(space, coeffs, pts)
    assert np.abs(values - (pts[:, 0] + pts[:, 1])).max() <= 1e-12


def test_interpolate_degree_six_polynomial_roundtrip():
    """x(1-x)^2 y(1-y)^2 has total degree 6, so the degree-6 space contains
    it and nodal interpolation reproduces it pointwise, on both diagonals
    and whatever vertex each triangle starts at."""
    g = lambda x, y: x * (1 - x) ** 2 * y * (1 - y) ** 2
    pts = np.random.default_rng(17).random((100, 2))
    for kind, diagonal in MESH_CASES:
        space = build_space(MESHES[kind](9, diagonal), 6)
        coeffs = interpolate(space, g)
        error = np.abs(evaluate(space, coeffs, pts) - g(pts[:, 0], pts[:, 1])).max()
        assert error <= 1e-12, (kind, diagonal)


def test_evaluate_on_edges_and_corners():
    space = build_space(build_structured_mesh(3), 2)
    g = lambda x, y: 2 * x - y + x * y
    coeffs = interpolate(space, g)
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [1 / 3, 2 / 3]])
    assert np.abs(evaluate(space, coeffs, pts) - g(pts[:, 0], pts[:, 1])).max() <= 1e-12


def test_prolongation_identity():
    space = build_space(build_structured_mesh(3), 2)
    P = build_prolongation(space, space).matrix
    assert (P != sp.identity(space.n_dofs_total, format="csr")).nnz == 0


def test_prolongation_degree_raise_reproduces_cubic():
    g = lambda x, y: x**3
    for kind, diagonal in MESH_CASES:
        mesh = MESHES[kind](9, diagonal)
        source = build_space(mesh, 3)
        target = build_space(mesh, 6)
        P = build_prolongation(source, target).matrix
        error = np.abs(P @ interpolate(source, g) - interpolate(target, g)).max()
        assert error <= 1e-12, (kind, diagonal)


def test_prolongation_mesh_refine_reproduces_polynomial():
    g = lambda x, y: x**2 * y
    for kind, diagonal in MESH_CASES:
        coarse_mesh = MESHES[kind](9, diagonal)
        source = build_space(coarse_mesh, 3)
        target = build_space(refine_nested(coarse_mesh, 9), 3)
        P = build_prolongation(source, target).matrix
        error = np.abs(P @ interpolate(source, g) - interpolate(target, g)).max()
        assert error <= 1e-12, (kind, diagonal)


def test_prolongation_preserves_constants():
    mesh = build_structured_mesh(4)
    source = build_space(mesh, 2)
    target = build_space(mesh, 5)
    P = build_prolongation(source, target).matrix
    ones = np.ones(source.n_dofs_total)
    assert np.abs(P @ ones - 1.0).max() <= 1e-12


@pytest.mark.parametrize("diagonal", ["down", "up"])
def test_prolongation_pointwise_equality(diagonal):
    """A prolonged function is the same function: P @ c is the source
    function located and evaluated at the target DOFs, and values agree at
    random points.  Degree raises and nested factors 2 and 3, on the
    structured and the rotated-vertex mesh."""
    for kind in MESHES:
        for source_degree, target_degree, factor in [(2, 2, 2), (2, 2, 3), (3, 6, 1), (1, 5, 1)]:
            mesh = MESHES[kind](3, diagonal)
            source = build_space(mesh, source_degree)
            target_mesh = mesh if factor == 1 else refine_nested(mesh, factor)
            target = build_space(target_mesh, target_degree)
            P = build_prolongation(source, target).matrix
            coeffs = np.random.default_rng(23).standard_normal(source.n_dofs_total)
            case = (kind, source_degree, target_degree, factor)
            located = evaluate(source, coeffs, target.dof_coordinates)
            assert np.abs(P @ coeffs - located).max() <= 1e-12 * np.abs(coeffs).max(), case
            pts = np.random.default_rng(29).random((100, 2))
            before = evaluate(source, coeffs, pts)
            after = evaluate(target, P @ coeffs, pts)
            assert np.abs(before - after).max() <= 1e-10, case


def test_prolongation_row_support_bound():
    mesh = build_structured_mesh(4)
    source = build_space(mesh, 3)
    target = build_space(mesh, 6)
    P = build_prolongation(source, target).matrix
    per_row = np.diff(P.indptr)
    assert per_row.max() <= source.element.n_basis


def test_prolongation_rejects_incompatible_pairs():
    mesh3 = build_structured_mesh(3)
    mesh5 = build_structured_mesh(5)
    with pytest.raises(ValueError):
        build_prolongation(build_space(mesh3, 4), build_space(mesh3, 2))
    with pytest.raises(ValueError):
        build_prolongation(build_space(mesh3, 2), build_space(mesh5, 2))
    with pytest.raises(ValueError):
        build_prolongation(
            build_space(mesh3, 2), build_space(refine_nested(mesh3, 2), 3)
        )
    with pytest.raises(ValueError):
        build_prolongation(
            build_space(mesh3, 2),
            build_space(build_structured_mesh(6, diagonal="up"), 2),
        )


def test_conformity_shared_edge_values_agree():
    """Tabulating a function cellwise never assigns two values to one DOF:
    restrict a random global vector to both cells of a shared edge and
    evaluate at the midpoint from each side."""
    mesh = build_structured_mesh(2)
    space = build_space(mesh, 3)
    coeffs = np.random.default_rng(31).standard_normal(space.n_dofs_total)
    # The diagonal edge of cell 0: shared by triangles 0 and 1.
    mid = np.array([[0.25, 0.25]])
    v0, _ = tabulate_basis(space.element, np.array([[0.5, 0.5]]))
    from_lower = (v0 @ coeffs[space.cell_to_dofs[0]]).item()
    v1, _ = tabulate_basis(space.element, np.array([[0.0, 0.5]]))
    from_upper = (v1 @ coeffs[space.cell_to_dofs[1]]).item()
    assert from_lower == pytest.approx(from_upper, abs=1e-12)
    assert float(evaluate(space, coeffs, mid)[0]) == pytest.approx(from_lower, abs=1e-12)
