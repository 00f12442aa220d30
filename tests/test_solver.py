"""Linear solves: direct and Krylov paths, failure reporting, determinism."""

import numpy as np
import pytest
import scipy.sparse as sp

from twolevelfem import (
    SolverError,
    assemble_load,
    assemble_nonsym,
    assemble_stiffness,
    build_space,
    build_structured_mesh,
    interior_block,
    make_factor,
)
from twolevelfem.problems import example_1


def reduced_operators(M, degree):
    """Interior blocks of the stiffness and lower-order matrices, and the
    interior load, for example 1."""
    space = build_space(build_structured_mesh(M), degree)
    problem = example_1()
    A = interior_block(assemble_stiffness(space, problem), space)
    Npart = interior_block(assemble_nonsym(space, problem), space)
    F = assemble_load(space, problem.f)[space.interior_dofs]
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
    K = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SolverError, match="singular"):
        make_factor(K)(np.array([1.0, 1.0]))


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


def test_report_timings_nonnegative():
    A, _, F = reduced_operators(3, 1)
    _, report = make_factor(A)(F)
    assert report.factor_time_s >= 0.0
    assert report.solve_time_s >= 0.0
