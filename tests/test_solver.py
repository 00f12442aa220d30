"""Linear solves: direct and Krylov paths, failure reporting, determinism."""

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twolevelfem import (
    SolverError,
    assemble_load,
    assemble_nonsym,
    assemble_operator,
    assemble_stiffness,
    build_space,
    build_structured_mesh,
    make_factor,
    refine_nested,
)
from twolevelfem.problems import example_1, load_problem_file
from twolevelfem.solver import TOL, DirectFactor, _residual_floor


def reduced_operators(M, degree, refine=1, problem=example_1):
    """Interior blocks of the stiffness and lower-order matrices, and the
    interior load, on the M-subdivision mesh refined `refine` times per cell
    (example 1 unless `problem` says otherwise)."""
    space = build_space(refine_nested(build_structured_mesh(M), refine), degree)
    problem = problem()
    n = space.n_interior
    A = assemble_stiffness(space, problem)[:n, :n]
    Npart = assemble_nonsym(space, problem)[:n, :n]
    F = assemble_load(space, problem.f)[:n]
    return A, Npart, F


def test_identity_system():
    A = sp.identity(17, format="csr")
    b = np.linspace(-3, 5, 17)
    x, report = make_factor(A)(b)
    assert np.array_equal(x, b)
    assert report.method == "direct"
    assert report.iterations == 0
    assert report.relative_residual <= 1e-12


def test_single_interior_dof_diagonal_four():
    """The M=2, P1 stiffness has one interior DOF with diagonal entry 4."""
    A, _, _ = reduced_operators(2, 1)
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(4.0, abs=1e-13)
    x, _ = make_factor(A)(np.array([2.0]))
    assert x[0] == pytest.approx(0.5, abs=1e-13)


def test_spd_solve_residual():
    A, _, F = reduced_operators(9, 3)
    x, report = make_factor(A)(F)
    resid = np.linalg.norm(A @ x - F) / np.linalg.norm(F)
    assert resid <= 1e-12
    assert report.relative_residual <= 1e-12


def test_general_permutation_system():
    K = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x, _ = make_factor(K)(np.array([1.0, 2.0]))
    assert np.allclose(x, [2.0, 1.0], atol=1e-14)


def test_general_solve_indefinite_operator():
    """A - 10*Mass is nonsingular: -10 is below the smallest Dirichlet
    eigenvalue 2 pi^2 of the unit square."""
    A, Npart, F = reduced_operators(9, 3)
    K = (A + Npart).tocsr()
    x, report = make_factor(K)(F)
    resid = np.linalg.norm(K @ x - F) / np.linalg.norm(F)
    assert resid <= 1e-12
    assert report.relative_residual <= 1e-12


def test_singular_matrix_raises():
    """Both solvers refuse a singular system; GMRES reports its attempt,
    which stays within the budget of 10 iterations per unknown."""
    K = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    for solver, message in [("direct", "singular"), ("iterative", "gmres")]:
        with pytest.raises(SolverError, match=message) as excinfo:
            make_factor(K, solver)(np.array([1.0, 1.0]))
    report = excinfo.value.report
    assert report.method == "gmres"
    assert report.iterations <= 10 * K.shape[0]


def test_gmres_stalls_once_its_budget_is_spent():
    """GMRES on the cyclic shift cannot lower the residual of e1 before its
    Krylov space spans all 100 unknowns, which restarts of 50 never reach;
    the whole budget of 10 iterations per unknown goes to the first solve,
    and the refinement step finds none left."""
    n = 100
    shift = sp.csr_matrix((np.ones(n), np.roll(np.arange(n), 1), np.arange(n + 1)))
    b = np.zeros(n)
    b[0] = 1.0
    with pytest.raises(SolverError, match="stalled") as excinfo:
        make_factor(shift, "iterative")(b)
    assert excinfo.value.report.iterations == 10 * n


def test_gmres_report_counts_every_gmres_iteration(monkeypatch):
    """GMRES capped at two iterations per run leaves a residual that two
    refinement steps lower below TOL: the report counts the iterations of
    all three runs, plus one per refinement."""
    gmres, runs = spla.gmres, []

    def capped(A, b, callback, **options):
        ticks = []
        options["maxiter"] = min(options["maxiter"], 2)
        solution = gmres(A, b, callback=lambda r: (ticks.append(r), callback(r)), **options)
        runs.append(len(ticks))
        return solution

    monkeypatch.setattr(spla, "gmres", capped)
    rng = np.random.default_rng(0)
    K = sp.csr_matrix(4.0 * np.eye(30) + rng.uniform(-0.01, 0.01, (30, 30)))
    _, report = make_factor(K, "iterative")(rng.standard_normal(30))
    assert runs == [2, 2, 2]
    assert report.iterations == sum(runs) + len(runs) - 1


def test_a_csc_matrix_solves_like_its_csr_form():
    """make_factor takes any sparse format: a CSC matrix gives the CSR
    form's solution, and no SparseEfficiencyWarning (an error here)."""
    A, Npart, F = reduced_operators(4, 2)
    K = (A + Npart).tocsr()
    assert np.array_equal(make_factor(K.tocsc())(F)[0], make_factor(K)(F)[0])


@pytest.mark.parametrize("solver", ["direct", "iterative"])
def test_non_finite_matrix_is_refused(solver):
    with warnings.catch_warnings(), pytest.raises(SolverError, match="non-finite values"):
        warnings.simplefilter("ignore", RuntimeWarning)
        make_factor(sp.csr_matrix([[np.inf]]), solver)(np.ones(1))


def test_zero_rhs_short_circuits():
    A, _, _ = reduced_operators(3, 2)
    x, report = make_factor(A)(np.zeros(A.shape[0]))
    assert np.array_equal(x, np.zeros(A.shape[0]))
    assert report.iterations == 0
    assert report.relative_residual == 0.0


def test_empty_system():
    x, report = make_factor(sp.csr_matrix((0, 0)))(np.zeros(0))
    assert x.shape == (0,)
    assert report.relative_residual == 0.0


def test_deterministic_resolve():
    A, _, F = reduced_operators(5, 2)
    x1, _ = make_factor(A)(F)
    x2, _ = make_factor(A)(F)
    assert np.array_equal(x1, x2)


def test_gmres_agrees_with_direct():
    A, Npart, F = reduced_operators(4, 2)
    K = (A + Npart).tocsr()
    xd, _ = make_factor(K)(F)
    xg, report = make_factor(K, "iterative")(F)
    assert report.method == "gmres"
    assert report.iterations > 0
    assert np.linalg.norm(xd - xg) <= 1e-9 * np.linalg.norm(xd)


def test_solve_general_matches_spd_on_spd_input():
    """GMRES, the iterative solve of both the nonsymmetric coarse and the SPD
    fine systems, agrees with the direct solve on SPD input in the energy
    norm."""
    A, _, F = reduced_operators(4, 3)
    xs, _ = make_factor(A)(F)
    xg, _ = make_factor(A, "iterative")(F)
    diff = xs - xg
    energy = np.sqrt(diff @ (A @ diff))
    scale = np.sqrt(xs @ (A @ xs))
    assert energy <= 1e-10 * max(1.0, scale)


def test_make_factor_reusable():
    A, _, _ = reduced_operators(4, 1)
    solve = make_factor(A)
    rng = np.random.default_rng(2)
    for _ in range(3):
        b = rng.standard_normal(A.shape[0])
        x, _ = solve(b)
        fresh, _ = make_factor(A)(b)
        assert np.allclose(x, fresh, atol=1e-13)


def test_unknown_solver_rejected():
    with pytest.raises(ValueError, match="unknown solver"):
        make_factor(sp.identity(2, format="csr"), "cg")


def certified_floor(K, x, b):
    """The relative residual float64 evaluation of K x - b can certify.

    x and b are first scaled by the power of two that brings max|b| into
    [0.5, 1), which changes no relative quantity and keeps the norms of tiny
    right-hand sides from underflowing to 0/0."""
    exponent = np.frexp(np.max(np.abs(b)))[1]
    x, b = np.ldexp(x, -exponent), np.ldexp(b, -exponent)
    scale = np.linalg.norm(abs(K) @ np.abs(x) + np.abs(b))
    return 8.0 * np.finfo(float).eps * scale / np.linalg.norm(b)


# example_2 has the same alpha, beta and gamma, so it would factor the same
# A and A + Npart.
@pytest.mark.parametrize("example", [example_1])
@pytest.mark.parametrize(
    "M, degree, refine, bound",
    [(12, 6, 1, 1.06),   # two-level fine space: P6, 5,041 interior unknowns
     (9, 3, 9, 0.9)],    # two-grid fine space: P3 on M=81, 58,564 interior unknowns
    ids=["two-level-P6", "two-grid-P3"],
)
def test_ordering_cuts_fill(M, degree, refine, bound, example):
    """The lattice order of the interior DOFs, factored as it comes, against
    the graph ordering it replaced, minimum degree on the pattern of A^T + A,
    on the lexicographic numbering of the same matrices: the two-grid fill
    is cut (measured 0.87 on "down", 0.69 on "up") and the two-level fill
    stays level (measured 1.05 and 1.02), for the SPD fine matrix and for the
    nonsymmetric A + Npart, which SuperLU factors with partial pivoting;
    on both diagonals."""
    problem = example()
    for diagonal in ("down", "up"):
        space = build_space(refine_nested(build_structured_mesh(M, diagonal), refine), degree)
        A = assemble_stiffness(space, problem)
        n = space.n_interior
        # numbering lists the DOFs by lattice point; keep the interior ones.
        lexicographic = space.numbering[space.numbering < n]
        for K in (A, A + assemble_nonsym(space, problem)):
            oracle = spla.splu(K[lexicographic, :][:, lexicographic].tocsc(),
                               permc_spec="MMD_AT_PLUS_A").nnz
            assert DirectFactor(K[:n, :n])._lu.nnz <= bound * oracle


NONSYMMETRIC = str(Path(__file__).parent / "problems" / "nonsymmetric.py")


@pytest.mark.parametrize("problem, degree, M, operator", [
    (example_1, 3, 24, "A"),
    (example_1, 6, 6, "A"),
    (example_1, 3, 6, "A+N"),
    (lambda: load_problem_file(NONSYMMETRIC), 3, 6, "A+N"),
], ids=["two-grid-fine-P3", "two-level-fine-P6", "coarse-P3", "coarse-P3-nonsymmetric"])
def test_superlu_options_keep_fill_and_solution(problem, degree, M, operator):
    """DirectFactor's _SPLU_OPTIONS (relaxed supernodes and panels of 4
    columns) store no more L+U than scipy's defaults and solve the same
    system to 1e-12, on a fine stiffness of each algorithm and on the coarse
    A + Npart of example 1 and of the nonsymmetric file.  The options are in
    use: on the coarse operators they cut the fill (measured 8,284 against
    10,538 entries)."""
    space, spec = build_space(build_structured_mesh(M), degree), problem()
    A = (assemble_stiffness(space, spec, interior=True) if operator == "A"
         else assemble_operator(space, spec))
    factor = DirectFactor(A)
    default = spla.splu(A.T, permc_spec="NATURAL")
    assert factor._lu.nnz <= default.nnz
    if operator == "A+N":
        assert factor._lu.nnz < default.nnz
    b = np.random.default_rng(M).uniform(-1.0, 1.0, A.shape[0])
    x, expected = factor.solve(b)[0], default.solve(b, trans="T")
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_residual_floor_counts_the_product_and_the_load():
    """A x - b rounds terms of size |A| |x| + |b|: for A = I and x = b that
    is 2 |b|, so the floor is 8 eps times 2."""
    b = np.array([1.0, -2.0, 3.0])
    floor = _residual_floor(sp.identity(3, format="csr"), b, b, np.linalg.norm(b))
    assert floor / np.finfo(float).eps == pytest.approx(16.0, rel=1e-12)


def test_residual_floor_is_the_full_product_without_a_copy_of_abs_a():
    """The floor sums |A| |x| in row chunks over views of A's own arrays:
    bit for bit the floor of one product by a full |A|, at under a quarter
    of the memory of A's entries (a full |A| costs all of it)."""
    A, _, _ = reduced_operators(40, 3)
    rng = np.random.default_rng(40)
    x, b = rng.standard_normal((2, A.shape[0]))
    norm_b = np.linalg.norm(b)
    abs_A = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    expected = 8.0 * np.finfo(float).eps * float(
        np.linalg.norm(abs_A @ np.abs(x) + np.abs(b))) / norm_b
    tracemalloc.start()
    try:
        floor = _residual_floor(A, x, b, norm_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert floor == expected
    assert peak < A.data.nbytes / 4


def test_refinement_stops_at_certified_floor():
    """The first solve of the two-grid fine stiffness at M=9 (58,564 interior
    unknowns) lands above TOL but below the residual floor float64 can
    certify; no refinement step is spent on it."""
    A, _, F = reduced_operators(9, 3, refine=9)
    x, report = make_factor(A)(F)
    assert report.iterations == 0
    assert TOL < report.relative_residual <= certified_floor(A, x, F)


@pytest.mark.parametrize("solver", ["direct", "iterative"])
def test_ill_conditioned_solve_stops_at_the_certified_floor(solver):
    """SPD with condition number 2e5 and b mostly along the eigenvector of
    the smallest eigenvalue: TOL is out of GMRES's reach, but both solvers
    must stop at the certified floor with the dense solve's accuracy."""
    n = 20
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigenvalues = np.concatenate([[1e-5], np.linspace(0.5, 2.0, n - 1)])
    A = sp.csr_matrix(Q @ np.diag(eigenvalues) @ Q.T)
    b = Q @ np.concatenate([[1e-5], 1e-8 * rng.standard_normal(n - 1)])
    x, report = make_factor(A, solver)(b)
    assert report.relative_residual <= max(TOL, certified_floor(A, x, b))
    reference = np.linalg.solve(A.toarray(), b)
    cond = eigenvalues.max() / eigenvalues.min()
    assert np.linalg.norm(x - reference) <= \
        cond * np.finfo(float).eps * np.linalg.norm(reference)


def test_refinement_polishes_an_inexact_factor():
    """A factor of K + 1e-6 diag(K) leaves a first residual near 3e-5, far
    above the floor; refinement must still bring it below TOL."""
    A, Npart, F = reduced_operators(4, 2)
    K = (A + Npart).tocsr()
    factor = DirectFactor(K)
    factor._lu = spla.splu((K + 1e-6 * sp.diags(K.diagonal())).tocsc())
    _, report = factor.solve(F)
    assert report.iterations >= 1
    assert report.relative_residual <= TOL


@st.composite
def dominant_systems(draw):
    """Strictly diagonally dominant K with a structurally nonsymmetric
    pattern (n >= 2) and diagonal entries of either sign, and a right-hand
    side b."""
    n = draw(st.integers(1, 60))
    values = st.floats(-10.0, 10.0, allow_nan=False)
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, values), max_size=4 * n))
    K = np.zeros((n, n))
    for i, j, v in entries:
        if i != j:
            K[i, j] = v
    if n >= 2:
        K[n - 1, 0] = draw(st.floats(0.5, 10.0))
        K[0, n - 1] = 0.0
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    margins = np.array(draw(st.lists(st.floats(0.5, 10.0), min_size=n, max_size=n)))
    K[np.diag_indices(n)] = signs * (np.abs(K).sum(axis=1) + margins)
    b = np.array(draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                               min_size=n, max_size=n)))
    return sp.csr_matrix(K), b


def assert_matches_dense(x, K, b):
    """x agrees with the dense solve to 1e-10 of the solution's largest
    entry, however small that entry is."""
    ref = np.linalg.solve(K.toarray(), b)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


# A right-hand side whose 2-norm underflows: its squared entries are 0.
TINY_SYSTEM = (sp.csr_matrix([[3.0]]), np.array([2.47845108e-196]))
# A subnormal right-hand side, below 2**-1022, whose scale 2**-e would overflow.
SUBNORMAL_SYSTEM = (sp.csr_matrix([[3.0]]), np.array([2.22507386e-313]))


@settings(derandomize=True, deadline=None)
@given(dominant_systems())
@example(TINY_SYSTEM)
@example(SUBNORMAL_SYSTEM)
def test_direct_solve_matches_dense(system):
    K, b = system
    x, report = make_factor(K)(b)
    assert_matches_dense(x, K, b)
    floor = certified_floor(K, x, b) if np.any(b) else 0.0
    assert report.relative_residual <= max(TOL, floor)


@settings(derandomize=True, deadline=None)
@given(dominant_systems())
@example(TINY_SYSTEM)
@example(SUBNORMAL_SYSTEM)
def test_krylov_solve_matches_dense(system):
    K, b = system
    x, report = make_factor(K, "iterative")(b)
    assert_matches_dense(x, K, b)
    assert report.relative_residual <= TOL


@pytest.mark.parametrize("b", [2.47845108e-196, 1e300, 1e-310])
@pytest.mark.parametrize("solver", ["direct", "iterative"])
def test_right_hand_side_beyond_the_norm_range(solver, b):
    """Squaring b underflows (or overflows) its 2-norm, and 1e-310 is
    subnormal; the solve must still return x = b / 3 to the last bits and
    report its true residual."""
    K, rhs = sp.csr_matrix([[3.0]]), np.array([b])
    x, report = make_factor(K, solver)(rhs)
    assert x[0] == pytest.approx(b / 3.0, rel=4 * np.finfo(float).eps, abs=0.0)
    assert report.relative_residual <= TOL
