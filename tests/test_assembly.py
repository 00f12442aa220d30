"""Operator assembly: stiffness, lower-order part, loads, boundary handling."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevelfem import (
    CoefficientError,
    ProblemSpec,
    assemble_load,
    assemble_nonsym,
    assemble_operator,
    assemble_stiffness,
    build_prolongation,
    build_space,
    build_structured_mesh,
    galerkin_solve,
    interpolate,
)
from twolevelfem import assembly
from twolevelfem.assembly import _to_csr, default_assembly_quadrature
from twolevelfem.element import tabulate_basis
from twolevelfem.mesh import Mesh, lattice
from twolevelfem.problems import example_1, load_problem_file

NONSYMMETRIC = str(Path(__file__).parent / "problems" / "nonsymmetric.py")


def constant_problem(beta=(0.0, 0.0), gamma=0.0):
    bx, by = beta
    return ProblemSpec(
        alpha=lambda x, y: np.ones_like(x),
        beta=lambda x, y: np.stack([np.full_like(x, bx), np.full_like(x, by)], axis=-1),
        gamma=lambda x, y: np.full_like(x, gamma),
        f=lambda x, y: np.ones_like(x),
        name="constant",
    )


def test_p1_unit_cell_stiffness_frozen():
    """Assembling the two unit right triangles of the M=1 mesh.  Each local
    matrix is (1/2)*[[2,-1,-1],[-1,1,0],[-1,0,1]] from the constant
    barycentric gradients; summing the two gives this 4x4."""
    space = build_space(build_structured_mesh(1), 1)
    A = assemble_stiffness(space, constant_problem()).toarray()
    expected = np.array(
        [
            [1.0, -0.5, -0.5, 0.0],
            [-0.5, 1.0, 0.0, -0.5],
            [-0.5, 0.0, 1.0, -0.5],
            [0.0, -0.5, -0.5, 1.0],
        ]
    )
    assert np.abs(A - expected).max() <= 1e-14


def test_p1_unit_cell_stiffness_is_orientation_independent():
    down = build_space(build_structured_mesh(1, diagonal="down"), 1)
    up = build_space(build_structured_mesh(1, diagonal="up"), 1)
    spec = constant_problem()
    A_down = assemble_stiffness(down, spec).toarray()
    A_up = assemble_stiffness(up, spec).toarray()
    assert np.abs(A_down - A_up).max() <= 1e-14


def test_harmonic_linear_function_has_zero_interior_rows():
    space = build_space(build_structured_mesh(2), 1)
    A = assemble_stiffness(space, constant_problem())
    residual = A @ interpolate(space, lambda x, y: x + y)
    assert np.abs(residual[:space.n_interior]).max() <= 1e-12


@pytest.mark.parametrize("diagonal", ["down", "up"])
@pytest.mark.parametrize("M,degree", [(2, 1), (3, 2), (2, 4)])
def test_stiffness_symmetry(M, degree, diagonal):
    space = build_space(build_structured_mesh(M, diagonal=diagonal), degree)
    A = assemble_stiffness(space, constant_problem())
    assert np.abs((A - A.T).toarray()).max() <= 1e-12


def test_stiffness_semidefinite_with_constant_kernel():
    space = build_space(build_structured_mesh(3), 2)
    A = assemble_stiffness(space, constant_problem())
    rng = np.random.default_rng(41)
    for _ in range(20):
        x = rng.standard_normal(space.n_dofs_total)
        assert x @ (A @ x) >= -1e-12
    ones = np.ones(space.n_dofs_total)
    assert abs(ones @ (A @ ones)) <= 1e-11
    assert np.abs(np.asarray(A.sum(axis=1)).ravel()).max() <= 1e-11


def test_lower_order_part_is_scaled_mass_matrix():
    space = build_space(build_structured_mesh(3), 2)
    N = assemble_nonsym(space, constant_problem(gamma=-10.0))
    mass = assemble_nonsym(space, constant_problem(gamma=1.0))
    assert np.abs((N + 10.0 * mass).toarray()).max() <= 1e-12
    # Total entry sum is gamma * |domain|.
    assert N.sum() == pytest.approx(-10.0, abs=1e-10)


def test_lower_order_part_vanishes_without_coefficients():
    space = build_space(build_structured_mesh(2), 2)
    N = assemble_nonsym(space, constant_problem())
    assert np.abs(N.toarray()).max() <= 1e-15


def test_convection_annihilates_constants_and_sees_slopes():
    """With beta=(1,0), gamma=0: N maps constants to zero (gradient of the
    partition of unity), while summing N against the interpolant of x
    integrates the unit slope over the domain."""
    space = build_space(build_structured_mesh(3), 2)
    N = assemble_nonsym(space, constant_problem(beta=(1.0, 0.0)))
    ones = np.ones(space.n_dofs_total)
    assert np.abs(N @ ones).max() <= 1e-13
    slope = N @ interpolate(space, lambda x, y: x)
    assert ones @ slope == pytest.approx(1.0, abs=1e-12)


def test_load_oracles():
    space = build_space(build_structured_mesh(4), 3)
    F1 = assemble_load(space, lambda x, y: np.ones_like(x))
    assert F1.sum() == pytest.approx(1.0, abs=1e-13)
    F0 = assemble_load(space, lambda x, y: np.zeros_like(x))
    assert np.array_equal(F0, np.zeros(space.n_dofs_total))


def test_load_sum_for_sine_source():
    """f = (2 pi^2 - 10) sin(pi x) sin(pi y) integrates to
    (2 pi^2 - 10) (2/pi)^2 = 3.9471526543064894."""
    problem = example_1()
    space = build_space(build_structured_mesh(9), 3)
    F = assemble_load(space, problem.f)
    assert F.sum() == pytest.approx(3.9471526543064894, abs=1e-8)


def test_assembly_rule_point_counts():
    """2p + 3 asks for degree 9 at P3 and 15 at P6: 5 x 5 and 8 x 8
    points of the conical product rule."""
    assert len(default_assembly_quadrature(3).weights) == 25
    assert len(default_assembly_quadrature(6).weights) == 64


def direct_quadrature(space, spec):
    """A, Npart and F of `spec` on `space` by a plain per-element double loop
    over the local basis pairs, with physical gradients mapped one element
    at a time.  alpha may be scalar or a 2x2 matrix field."""
    quad = default_assembly_quadrature(space.degree)
    vals, ref_grads = tabulate_basis(space.element, quad.points)
    v0, jac, det, inv = space.mesh.affine
    n = space.n_dofs_total
    A_ref = np.zeros((n, n))
    N_ref = np.zeros((n, n))
    F_ref = np.zeros(n)
    for c in range(space.mesh.n_triangles):
        dofs = space.cell_to_dofs[c]
        pts = v0[c] + quad.points @ jac[c].T
        grads = ref_grads @ inv[c]  # (q, i, 2)
        a = spec.alpha(pts[:, 0], pts[:, 1])
        b = spec.beta(pts[:, 0], pts[:, 1])
        g = spec.gamma(pts[:, 0], pts[:, 1])
        f = spec.f(pts[:, 0], pts[:, 1])
        w = quad.weights * det[c]
        for i, gi in enumerate(dofs):
            F_ref[gi] += w @ (f * vals[:, i])
            for j, gj in enumerate(dofs):
                if np.ndim(a) == 1:
                    prod = np.einsum("q,qa,qa->q", a, grads[:, i], grads[:, j])
                else:  # (alpha grad phi_j) . grad phi_i
                    prod = np.einsum("qa,qab,qb->q", grads[:, i], a, grads[:, j])
                A_ref[gi, gj] += w @ prod
                conv = np.einsum("qa,qa->q", b, grads[:, j])
                N_ref[gi, gj] += w @ ((conv + g * vals[:, j]) * vals[:, i])
    return A_ref, N_ref, F_ref


def assembly_errors(space, spec):
    """Largest entry difference of A, Npart and F from direct_quadrature,
    and the largest reference entry."""
    A_ref, N_ref, F_ref = direct_quadrature(space, spec)
    errors = [
        np.abs(assemble_stiffness(space, spec).toarray() - A_ref).max(),
        np.abs(assemble_nonsym(space, spec).toarray() - N_ref).max(),
        np.abs(assemble_load(space, spec.f) - F_ref).max(),
    ]
    return max(errors), max(np.abs(ref).max() for ref in (A_ref, N_ref, F_ref))


@pytest.mark.parametrize("diagonal", ["down", "up"])
def test_assembled_operators_match_direct_quadrature(diagonal):
    """Entry-by-entry cross-check against a plain per-element double loop
    with variable coefficients."""
    spec = ProblemSpec(
        alpha=lambda x, y: 1.0 + 0.5 * x * y,
        beta=lambda x, y: np.stack([y, -x], axis=-1),
        gamma=lambda x, y: x - 2.0 * y,
        f=lambda x, y: np.ones_like(x),
        name="variable",
    )
    space = build_space(build_structured_mesh(2, diagonal=diagonal), 2)
    error, _ = assembly_errors(space, spec)
    assert error <= 1e-12


def polynomials(count):
    """`count` random polynomials of total degree <= 2 in (x, y)."""
    coefficients = st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6)

    def as_function(c):
        return lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    return st.lists(coefficients.map(as_function), min_size=count, max_size=count)


def cellwise(count, M):
    """`count` random fields constant on each cell of the M x M grid, read
    at (floor(x M), floor(y M)): constants when M = 1."""
    def as_function(values):
        table = np.reshape(values, (M, M))
        cell = lambda t: np.clip(np.floor(np.asarray(t) * M).astype(int), 0, M - 1)
        return lambda x, y: table[cell(x), cell(y)]

    values = st.lists(st.floats(-2.0, 2.0), min_size=M * M, max_size=M * M)
    return st.lists(values.map(as_function), min_size=count, max_size=count)


@st.composite
def assembly_cases(draw):
    """A small mesh (both diagonals, optionally with jittered interior
    vertices, so that every triangle has its own Jacobian), a degree 1-4
    and coefficients alpha (scalar or a nonsymmetric 2x2 field), beta,
    gamma and f of one kind: polynomial, constant, or, on an unjittered
    mesh, constant on each cell, so each is constant on every triangle."""
    mesh = build_structured_mesh(draw(st.integers(1, 2)), draw(st.sampled_from(["down", "up"])))
    jittered = draw(st.booleans())
    if jittered:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        jitter = rng.uniform(-0.2 / mesh.M, 0.2 / mesh.M, mesh.vertices.shape)
        mesh = dataclasses.replace(
            mesh, vertices=mesh.vertices + jitter * ~lattice(mesh.M)[1][:, None])
    cells = draw(st.sampled_from([None, 1] if jittered else [None, 1, mesh.M]))
    fields = polynomials if cells is None else lambda count: cellwise(count, cells)
    if draw(st.booleans()):
        alpha = draw(fields(1))[0]
    else:
        a = draw(fields(4))
        alpha = lambda x, y: np.stack([np.stack([a[0](x, y), a[1](x, y)], axis=-1),
                                       np.stack([a[2](x, y), a[3](x, y)], axis=-1)], axis=-2)
    bx, by, gamma = draw(fields(3))
    f = draw(fields(1))[0]
    spec = ProblemSpec(alpha=alpha, beta=lambda x, y: np.stack([bx(x, y), by(x, y)], axis=-1),
                       gamma=gamma, f=f)
    return build_space(mesh, draw(st.integers(1, 4))), spec


@settings(derandomize=True, deadline=None)
@given(assembly_cases())
def test_assembly_matches_direct_quadrature_on_random_coefficients(case):
    """Every assembled form against the double loop, for random polynomial
    and element-constant coefficients.  A nonsymmetric matrix alpha tells
    alpha from alpha^T in inv alpha inv^T, which the identity alpha of
    test_matrix_alpha_matches_scalar_alpha cannot.  The stiffness refuses a
    drawn alpha whose symmetric part is not positive definite, so it is also
    compared on alpha + 25 I, never refused: each drawn field is at most
    12 in absolute value on the unit square, so a, d >= 13 > |b + c| / 2."""
    space, spec = case
    A_ref, N_ref, F_ref = direct_quadrature(space, spec)
    assert_matches(assemble_nonsym(space, spec).toarray(), N_ref)
    assert_matches(assemble_load(space, spec.f), F_ref)
    try:
        assert_matches(assemble_stiffness(space, spec).toarray(), A_ref)
    except CoefficientError as exc:
        assert "not positive definite" in str(exc)
    shifted = dataclasses.replace(spec, alpha=lambda x, y: shift_25(spec.alpha(x, y), x))
    assert_matches(assemble_stiffness(space, shifted).toarray(), direct_quadrature(space, shifted)[0])


def shift_25(alpha, x):
    """alpha + 25 I for the values of a scalar or 2x2 matrix field at x."""
    return alpha + 25 * (np.eye(2) if np.ndim(alpha) > np.ndim(x) else 1.0)


def assert_matches(assembled, reference):
    assert np.abs(assembled - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())


def spy_on_triangles(monkeypatch):
    """Wrap assembly._on_triangles; the returned list gets, for each block
    it sees, whether it chose the contracted branch (det in place of wdet)."""
    contracted, on_triangles = [], assembly._on_triangles

    def spy(wdet, det, *fields):
        result = on_triangles(wdet, det, *fields)
        contracted.append(result[0] is det)
        return result

    monkeypatch.setattr(assembly, "_on_triangles", spy)
    return contracted


def constant_but_the_last_triangle(values, polynomial):
    """values[c] on cell c of the M=2 "down" mesh, except on the upper-right
    triangle of cell 3 (x + y > 1.5), where it is polynomial(x, y)."""
    def field(x, y):
        cell = np.minimum(2 * x, 1).astype(int) + 2 * np.minimum(2 * y, 1).astype(int)
        return np.where(x + y > 1.5, polynomial(x, y), np.asarray(values, float)[cell])
    return field


def mixed_spec():
    """Fields constant on each triangle of the M=2 "down" mesh but one."""
    bx = constant_but_the_last_triangle([1.0, -2.0, 0.5, 3.0], lambda x, y: x - y)
    by = constant_but_the_last_triangle([0.0, 1.5, -1.0, 2.0], lambda x, y: x * y)
    return ProblemSpec(
        alpha=constant_but_the_last_triangle([1.0, 2.0, 3.0, 4.0], lambda x, y: 1 + x * y),
        beta=lambda x, y: np.stack([bx(x, y), by(x, y)], axis=-1),
        gamma=constant_but_the_last_triangle([-10.0, 2.0, 0.0, 5.0], lambda x, y: x + y * y),
        f=constant_but_the_last_triangle([1.0, -1.0, 4.0, 2.0], lambda x, y: x * x - y),
    )


def test_contracted_branch_is_chosen_per_block(monkeypatch):
    """With two triangles per block the M=2 mesh has 4 blocks, one per
    cell.  The fields are constant on each triangle of the first three and
    vary on one triangle of the last, which mixes a constant triangle with a
    varying one and so takes the general path.  Both branches together
    still match the double loop."""
    monkeypatch.setattr(assembly, "_BLOCK", 2)
    spec = mixed_spec()
    space = build_space(build_structured_mesh(2), 3)
    contracted = spy_on_triangles(monkeypatch)
    A_ref, N_ref, F_ref = direct_quadrature(space, spec)
    for assembled, reference in [(assemble_stiffness(space, spec).toarray(), A_ref),
                                 (assemble_nonsym(space, spec).toarray(), N_ref),
                                 (assemble_load(space, spec.f), F_ref)]:
        assert_matches(assembled, reference)
    assert contracted == 3 * [True, True, True, False]


@pytest.mark.parametrize("problem, degree, diagonal, split", [
    ("ex1", 3, "down", (True, True, False)),
    ("ex1", 3, "up", (True, True, False)),
    ("ex1", 6, "down", (True, True, False)),
    ("ex1", 6, "up", (True, True, False)),
    ("nonsymmetric", 3, "down", (False, True, False)),
    ("nonsymmetric", 6, "up", (False, True, False)),
])
def test_contracted_and_general_paths_agree(monkeypatch, problem, degree, diagonal, split):
    """A, Npart and F by default against the same forms with the
    contraction turned off, to 1e-13 of their largest entry, and the
    branch each form took: ex1's constant alpha, beta and gamma are
    contracted but its sin source is not; the nonsymmetric file's
    alpha = 1 + xy is not, its constant beta and gamma are."""
    spec = example_1() if problem == "ex1" else load_problem_file(NONSYMMETRIC)
    space = build_space(build_structured_mesh(4, diagonal=diagonal), degree)
    forms = [lambda: assemble_stiffness(space, spec).toarray(),
             lambda: assemble_nonsym(space, spec).toarray(),
             lambda: assemble_load(space, spec.f)]
    contracted = spy_on_triangles(monkeypatch)
    default = []
    for form, expected in zip(forms, split):
        default.append(form())
        assert set(contracted) == {expected}
        contracted.clear()
    monkeypatch.setattr(assembly, "_on_triangles", lambda wdet, det, *fields: (wdet, *fields))
    for form, fast in zip(forms, default):
        general = form()
        assert np.abs(fast - general).max() <= 1e-13 * np.abs(general).max()


def test_galerkin_identity_between_degrees():
    """Restricting the degree-4 operator through the embedding of the
    degree-2 space reproduces the directly assembled degree-2 operator."""
    problem = example_1()
    mesh = build_structured_mesh(3)
    coarse = build_space(mesh, 2)
    fine = build_space(mesh, 4)
    P = build_prolongation(coarse, fine).matrix
    full_fine = assemble_stiffness(fine, problem) + assemble_nonsym(fine, problem)
    full_coarse = assemble_stiffness(coarse, problem) + assemble_nonsym(coarse, problem)
    diff = (P.T @ full_fine @ P - full_coarse).toarray()
    assert np.abs(diff).max() <= 1e-10


def sorted_copy(matrix):
    copy = matrix.copy()
    copy.sort_indices()
    return copy


def assert_applies_the_leading_block(space, spec):
    """assemble_nonsym(interior=True) applied to random x matches the leading
    block of the full Npart to 1e-14 of its largest entry."""
    n = space.n_interior
    operator = assemble_nonsym(space, spec, interior=True)
    block = assemble_nonsym(space, spec)[:n, :n]
    assert operator.shape == block.shape == (n, n)
    for x in np.random.default_rng(n).uniform(-1.0, 1.0, (3, n)):
        assert np.abs(operator @ x - block @ x).max() <= 1e-14 * abs(block).max()


@pytest.mark.parametrize("diagonal", ["down", "up"])
@pytest.mark.parametrize("degree", range(1, 7))
@pytest.mark.parametrize("problem", [example_1, lambda: load_problem_file(NONSYMMETRIC)],
                         ids=["ex1", "nonsymmetric"])
def test_interior_scatter_is_the_leading_block_of_the_full_matrix(problem, degree, diagonal):
    """The interior scatter of A is the leading block of the full matrix
    entry for entry, bit for bit; the element operator of Npart applies that
    block to roundoff; the one-scatter operator sums the local matrices
    before the scatter, so it agrees with the block of A + Npart to roundoff
    of its largest entry."""
    space = build_space(build_structured_mesh(3, diagonal=diagonal), degree)
    spec, n = problem(), space.n_interior
    block = sorted_copy(assemble_stiffness(space, spec, interior=True))
    full = sorted_copy(assemble_stiffness(space, spec)[:n, :n])
    assert block.shape == full.shape == (n, n)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(block, attr), getattr(full, attr))
    assert_applies_the_leading_block(space, spec)
    full = (assemble_stiffness(space, spec) + assemble_nonsym(space, spec))[:n, :n]
    operator = assemble_operator(space, spec)
    assert operator.shape == (n, n)
    assert abs(operator - full).max() <= 1e-14 * abs(full).max()


@pytest.mark.parametrize("degree", [1, 3, 6])
def test_element_operator_applies_contracted_and_general_blocks(monkeypatch, degree):
    """With two triangles per block, the mixed fields contract Npart on
    three blocks and not on the last, so the element operator holds both
    kinds of block, and still applies the leading block of the full Npart."""
    monkeypatch.setattr(assembly, "_BLOCK", 2)
    space = build_space(build_structured_mesh(2), degree)
    contracted = spy_on_triangles(monkeypatch)
    assemble_nonsym(space, mixed_spec(), interior=True)
    assert contracted == [True, True, True, False]
    assert_applies_the_leading_block(space, mixed_spec())


def test_element_operator_refuses_a_vector_of_the_wrong_length():
    """The interior Npart is a scipy LinearOperator of shape
    (n_interior, n_interior): a vector one entry too long, or one over
    every DOF with the boundary ones, is refused, as the CSR block
    refuses it."""
    space = build_space(build_structured_mesh(3), 3)
    operator = assemble_nonsym(space, example_1(), interior=True)
    n = space.n_interior
    assert isinstance(operator, spla.LinearOperator)
    assert operator.shape == (n, n)
    for length in (n + 1, space.n_dofs_total):
        with pytest.raises(ValueError):
            operator @ np.ones(length)


@pytest.mark.parametrize("M, degree, bound", [(20, 6, 1.5), (40, 3, 1.75)])
def test_csr_build_peak_stays_near_the_matrix(M, degree, bound):
    """_to_csr allocates the int32 column indices of its element rows, the
    scatter matrix and the product, with no copy of the local entries: its
    peak stays within `bound` times the CSR it returns (measured 1.44 and
    1.66; a COO conversion with int32 indices gave 1.84 and 2.19)."""
    space = build_space(build_structured_mesh(M), degree)
    n_local = space.element.n_basis
    local = np.random.default_rng(0).standard_normal((space.mesh.n_triangles, n_local ** 2))
    tracemalloc.start()
    try:
        matrix = _to_csr(space, local)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


@pytest.mark.parametrize("problem", [example_1, lambda: load_problem_file(NONSYMMETRIC)],
                         ids=["ex1", "nonsymmetric"])
def test_local_matrices_are_held_once(monkeypatch, problem):
    """_local writes each block's C K into the one array it returns, not a
    list of block products and then their concatenation: over 13 blocks of
    256 triangles its peak stays within 1.6 times that array (measured
    1.20-1.46 for A and Npart of both problems; the concatenation gave
    2.00-2.11)."""
    monkeypatch.setattr(assembly, "_BLOCK", 256)
    space, spec = build_space(build_structured_mesh(40), 3), problem()
    for form in (assembly._stiffness, assembly._nonsym):
        tracemalloc.start()
        try:
            local = assembly._local(space, form(space, spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert local.shape == (space.mesh.n_triangles, space.element.n_basis ** 2)
        assert peak <= 1.6 * local.nbytes


def test_apply_dirichlet_empty_interior():
    """M=1, P1 has no interior DOF: the eliminated system is empty and the
    Galerkin solution is the zero boundary data."""
    space = build_space(build_structured_mesh(1), 1)
    n = space.n_interior
    assert assemble_stiffness(space, example_1())[:n, :n].shape == (0, 0)
    assert np.array_equal(galerkin_solve(space, example_1()), np.zeros(4))


def test_apply_dirichlet_interior_size():
    space = build_space(build_structured_mesh(9), 3)
    problem = example_1()
    n = space.n_interior
    A = assemble_stiffness(space, problem)[:n, :n]
    Npart = assemble_nonsym(space, problem)[:n, :n]
    assert A.shape == (676, 676)  # 784 total minus 4*3*9 boundary
    assert Npart.shape == (676, 676)
    u = galerkin_solve(space, problem)
    assert u.shape == (784,)
    assert np.all(u[n:] == 0.0)
    assert np.any(u[:n] != 0.0)


def test_reduced_stiffness_positive_definite_across_sizes():
    """Interior stiffness must be SPD for every mesh/degree combination the
    experiments touch.  Dense Cholesky certifies the small systems; the
    larger ones get symmetry plus random-vector positivity."""
    spec = constant_problem()
    for M in range(2, 13):
        for degree in range(1, 7):
            space = build_space(build_structured_mesh(M), degree)
            A = assemble_stiffness(space, spec)
            A_int = A[:space.n_interior, :space.n_interior].tocsr()
            n = A_int.shape[0]
            assert np.abs((A_int - A_int.T).toarray()).max() <= 1e-12
            if n <= 1200:
                scipy.linalg.cholesky(A_int.toarray())  # raises if not SPD
            else:
                rng = np.random.default_rng(M * 10 + degree)
                for _ in range(20):
                    x = rng.standard_normal(n)
                    assert x @ (A_int @ x) > 0.0


def test_degenerate_triangle_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    triangles = np.array([[0, 2, 1], [1, 3, 2]])  # first one clockwise
    mesh = Mesh(M=1, vertices=vertices, triangles=triangles)
    message = "triangle 0 has non-positive Jacobian determinant -1.000e[+]00"
    with pytest.raises(ValueError, match=message):
        mesh.affine
    with pytest.raises(ValueError, match=message):
        assemble_stiffness(build_space(mesh, 1), constant_problem())


def test_matrix_alpha_matches_scalar_alpha():
    """alpha given as 2x2 identity times a scalar equals the scalar case."""
    space = build_space(build_structured_mesh(2), 2)
    scalar = constant_problem()
    matrix = ProblemSpec(
        alpha=lambda x, y: np.broadcast_to(np.eye(2), np.shape(x) + (2, 2)),
        beta=scalar.beta,
        gamma=scalar.gamma,
        f=scalar.f,
    )
    A_s = assemble_stiffness(space, scalar).toarray()
    A_m = assemble_stiffness(space, matrix).toarray()
    assert np.abs(A_s - A_m).max() <= 1e-13


def test_assemble_system_bundle():
    """Stiffness, lower-order part and load of one space share its DOF
    numbering."""
    space = build_space(build_structured_mesh(3), 2)
    problem = example_1()
    n = space.n_dofs_total
    assert assemble_stiffness(space, problem).shape == (n, n)
    assert assemble_nonsym(space, problem).shape == (n, n)
    assert assemble_load(space, problem.f).shape == (n,)


def test_beta_of_wrong_shape_is_named():
    spec = ProblemSpec(
        alpha=lambda x, y: np.ones_like(x),
        beta=lambda x, y: np.zeros_like(x),
        gamma=lambda x, y: np.zeros_like(x),
        f=lambda x, y: np.ones_like(x),
    )
    with pytest.raises(ValueError, match="beta returned shape"):
        assemble_nonsym(build_space(build_structured_mesh(2), 1), spec)
