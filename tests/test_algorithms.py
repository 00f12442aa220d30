"""Correction iterations: configuration, degeneracies, convergence behavior."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevelfem import (
    CoefficientError,
    IterationOperators,
    ProblemSpec,
    SolverError,
    assemble_stiffness,
    build_space,
    build_structured_mesh,
    galerkin_solve,
    h1_distance,
    h1_error,
    h1_norm_discrete,
    interpolate,
    refine_nested,
    run_correction_iteration,
)
from twolevelfem import algorithms, assembly
from twolevelfem.cli import RunConfig, UsageError, run_experiment
from twolevelfem.problems import example_1, example_2, get_problem
from twolevelfem.solver import TOL


def two_grid_spaces(M, degree, factor):
    """Coarse and fine spaces of a two-grid pair (fine mesh nested by `factor`)."""
    mesh = build_structured_mesh(M)
    return build_space(mesh, degree), build_space(refine_nested(mesh, factor), degree)


def iterate(spec, coarse, fine, k):
    return run_correction_iteration(IterationOperators(spec, coarse, fine), k)


def poisson_like():
    """beta = 0, gamma = 0: the lower-order part vanishes entirely."""
    base = example_1()
    return ProblemSpec(
        alpha=base.alpha,
        beta=base.beta,
        gamma=lambda x, y: np.zeros_like(x),
        f=base.f,
        exact_u=None,
        exact_grad_u=None,
        name="poisson",
    )


def run_config(algorithm, l=3, s=None, k=3, fine_factor="square", M_list=(9,)):
    return RunConfig(example="1", algorithm=algorithm, l=l, s=s, k=k,
                     M_list=M_list, fine_factor=fine_factor)


def test_config_validation():
    with pytest.raises(UsageError):
        run_config("three-grid", s=6)
    with pytest.raises(UsageError):
        run_config("two-level", l=0, s=2)
    with pytest.raises(UsageError):
        run_config("two-level", l=3, s=3)
    with pytest.raises(UsageError):
        run_config("two-level", l=3, s=7)
    with pytest.raises(UsageError):
        run_config("two-grid", fine_factor=1)
    with pytest.raises(UsageError):
        run_config("two-grid", fine_factor=2, k=0)
    with pytest.raises(UsageError):
        run_config("galerkin", l=7)
    with pytest.raises(UsageError):
        run_config("two-level", l=3.0, s=4)
    with pytest.raises(UsageError):
        run_config("two-level", l=1, s=2.0)
    with pytest.raises(UsageError):
        run_config("two-level", s=4, k=2.5)
    with pytest.raises(UsageError):
        run_config("galerkin", M_list=(2.5,))
    run_config("two-level", s=4)
    run_config("two-grid")


def test_resolve_fine_factor():
    assert run_config("two-grid").resolved_fine_factor(9) == 9
    assert run_config("two-grid", fine_factor=4).resolved_fine_factor(9) == 4
    # h = H^2 caps the coarse size at 64 (4096 fine subdivisions).
    run_config("two-grid", M_list=(64,))
    with pytest.raises(UsageError):
        run_config("two-grid", M_list=(65,))


def test_galerkin_zero_source_gives_zero():
    spec = ProblemSpec(
        alpha=lambda x, y: np.ones_like(x),
        beta=lambda x, y: np.zeros(np.shape(x) + (2,)),
        gamma=lambda x, y: np.full_like(x, -10.0),
        f=lambda x, y: np.zeros_like(x),
    )
    space = build_space(build_structured_mesh(3), 2)
    u = galerkin_solve(space, spec)
    assert np.abs(u).max() <= 1e-14


def test_galerkin_contains_sextic_solution():
    """The degree-6 space contains x(1-x)^2 y(1-y)^2, so the Galerkin
    solution hits it to solver precision."""
    problem = example_2()
    space = build_space(build_structured_mesh(3), 6)
    u = galerkin_solve(space, problem)
    assert h1_error(space, u, problem.exact_u, problem.exact_grad_u) <= 1e-11


def test_degenerate_lower_order_two_level_recovers_galerkin():
    spec = poisson_like()
    mesh = build_structured_mesh(4)
    fine = build_space(mesh, 2)
    state = iterate(spec, build_space(mesh, 1), fine, k=1)
    reference = galerkin_solve(fine, spec)
    assert h1_distance(fine, state.current, reference) <= 1e-10


def test_degenerate_lower_order_two_grid_recovers_galerkin():
    spec = poisson_like()
    coarse, fine = two_grid_spaces(4, 1, factor=2)
    state = iterate(spec, coarse, fine, k=1)
    reference = galerkin_solve(fine, spec)
    assert h1_distance(fine, state.current, reference) <= 1e-10


def test_coarse_residual_orthogonality_after_step_one():
    """Step 1 solves exactly for the coarse test functions: the residual of
    the corrected iterate, restricted through the embedding, vanishes on the
    coarse interior.  Polynomial inclusion makes the directly assembled
    coarse operator the restriction of the fine one."""
    problem = example_1()
    mesh = build_structured_mesh(3)
    coarse = build_space(mesh, 2)
    fine = build_space(mesh, 4)
    ops = IterationOperators(problem, coarse, fine)
    u = np.zeros(fine.n_interior)
    e = ops.correction(ops.fine_residual(u))
    residual = ops.fine_residual(u + ops.prolong @ e)
    restricted = ops.prolong.T @ residual
    scale = np.linalg.norm(ops.prolong.T @ ops.F_fine)
    assert np.abs(restricted).max() <= 1e-10 * max(1.0, scale)


def test_rounds_carry_the_fine_residual():
    """The residual that ends a round is the next round's right-hand side, so
    the full fine operator is applied once per round: the first correction
    gets F itself, the residual of the zero iterate, each later one the very
    array the last fine_residual returned, and that array's norm over |F| is
    the round's history entry."""
    k = 3
    mesh = build_structured_mesh(3)
    ops = IterationOperators(example_1(), build_space(mesh, 2), build_space(mesh, 4))
    residuals, received = [], []
    fine_residual, correction = ops.fine_residual, ops.correction

    def recorded_residual(u):
        residuals.append(fine_residual(u))
        return residuals[-1]

    def recorded_correction(r):
        received.append(r)
        return correction(r)

    ops.fine_residual, ops.correction = recorded_residual, recorded_correction
    history = run_correction_iteration(ops, k).residual_history
    assert len(residuals) == len(received) == k
    assert received[0] is ops.F_fine
    assert all(r is last for r, last in zip(received[1:], residuals))
    norm_f = np.linalg.norm(ops.F_fine)
    assert history == [np.linalg.norm(r) / norm_f for r in residuals]


NONSYMMETRIC = str(Path(__file__).parent / "problems" / "nonsymmetric.py")


@pytest.mark.parametrize(
    "example, algorithm, M, degree",
    [(example, "two-level", 9, s) for example in ("1", "2") for s in (4, 5, 6)]
    + [("1", "two-grid", 9, 3), (NONSYMMETRIC, "two-level", 10, 6),
       (NONSYMMETRIC, "two-grid", 6, 2)],
    ids=[f"ex{example}-3to{s}-M9" for example in (1, 2) for s in (4, 5, 6)]
    + ["ex1-two-grid-M9", "nonsymmetric-3to6-M10", "nonsymmetric-two-grid-P2-M6"],
)
def test_rounds_that_level_off_at_roundoff_are_not_refused(
        monkeypatch, example, algorithm, M, degree):
    """Fifty rounds of a paper preset or of the nonsymmetric problem contract
    to a level that roundoff holds; the floor 1e3 * TOL is what lets them
    through, for with no floor the same rounds are refused."""
    if algorithm == "two-level":
        mesh = build_structured_mesh(M)
        coarse, fine = build_space(mesh, 3), build_space(mesh, degree)
    else:
        coarse, fine = two_grid_spaces(M, degree, factor=M)
    ops = IterationOperators(get_problem(example), coarse, fine)
    assert run_correction_iteration(ops, 50).residual_history[-1] <= 1e3 * TOL
    monkeypatch.setattr(algorithms, "TOL", 0.0)
    with pytest.raises(SolverError, match="do not contract"):
        run_correction_iteration(ops, 50)


@pytest.mark.parametrize("fine_mesh, fine_degree", [(3, 4), (6, 2)],
                         ids=["two-level", "two-grid"])
def test_operators_hold_interior_blocks_and_factor_the_fine_stiffness_first(
        fine_mesh, fine_degree, monkeypatch):
    """The rounds read no boundary row: every fine block the operators hold
    has n_interior rows.  The fine SPD factor runs before the fine Npart is
    assembled, so no other fine matrix is alive while SuperLU works."""
    calls = []
    factor, nonsym = algorithms.make_factor, algorithms.assemble_nonsym
    monkeypatch.setattr(algorithms, "make_factor", lambda A, solver="direct": (
        calls.append(("factor", A.shape[0])) or factor(A, solver)))
    monkeypatch.setattr(algorithms, "assemble_nonsym", lambda space, spec: (
        calls.append(("nonsym", space)) or nonsym(space, spec)))
    mesh = build_structured_mesh(3)
    coarse = build_space(mesh, 2)
    fine = build_space(refine_nested(mesh, fine_mesh // 3), fine_degree)
    ops = IterationOperators(example_1(), coarse, fine)
    nf = fine.n_interior
    assert ops.A_fine.shape == ops.N_fine.shape == (nf, nf)
    assert ops.F_fine.shape == (nf,)
    assert ops.prolong.shape == (nf, coarse.n_interior)
    assert calls.index(("factor", nf)) < calls.index(("nonsym", fine))


@pytest.mark.parametrize("fine_mesh, fine_degree", [(3, 4), (6, 2)],
                         ids=["two-level", "two-grid"])
def test_rounds_multiply_by_a_sorted_fine_stiffness(fine_mesh, fine_degree):
    """Assembly leaves each row's column indices unsorted; SuperLU sorts the
    CSC view it factors in place, on the arrays A_fine shares, so the rounds
    multiply by a fine stiffness whose rows have strictly increasing columns."""
    mesh = build_structured_mesh(3)
    fine = build_space(refine_nested(mesh, fine_mesh // 3), fine_degree)
    A = IterationOperators(example_1(), build_space(mesh, 2), fine).A_fine
    assert all(np.all(np.diff(A.indices[start:stop]) > 0)
               for start, stop in zip(A.indptr[:-1], A.indptr[1:]))


def test_non_elliptic_alpha_is_refused_before_any_solve():
    """An alpha whose symmetric part is not positive definite at some
    assembly point is refused by the Galerkin solve and the correction
    iteration alike; it has no SPD stiffness to factor."""
    mesh = build_structured_mesh(4)
    for alpha in [lambda x, y: -np.ones_like(x),
                  lambda x, y: np.where(x < 0.5, 1.0, -1.0),
                  lambda x, y: np.broadcast_to(np.diag([1.0, -1.0]), np.shape(x) + (2, 2))]:
        problem = dataclasses.replace(example_1(), alpha=alpha)
        with pytest.raises(CoefficientError, match="not positive definite"):
            galerkin_solve(build_space(mesh, 2), problem)
        with pytest.raises(CoefficientError, match="not positive definite"):
            IterationOperators(problem, build_space(mesh, 3), build_space(mesh, 6))


NON_ELLIPTIC_ALPHAS = [
    lambda x, y: -np.ones_like(x),
    lambda x, y: np.where(x < 0.5, 1.0, -1.0),
    lambda x, y: np.broadcast_to(np.diag([1.0, -1.0]), np.shape(x) + (2, 2)),
]


@pytest.mark.parametrize("degree", [1, 3])
def test_stiffness_assembly_refuses_a_non_elliptic_alpha(degree):
    """The stiffness assembly itself refuses every alpha of
    test_non_elliptic_alpha_is_refused_before_any_solve and the indefinite
    [[1, 3/2], [3/2, 1]], whose positive diagonal alone would pass, and
    accepts a nonsymmetric alpha whose symmetric part is I."""
    def constant(matrix):
        return lambda x, y: np.broadcast_to(matrix, np.shape(x) + (2, 2))

    space = build_space(build_structured_mesh(4), degree)
    for alpha in NON_ELLIPTIC_ALPHAS + [constant([[1.0, 1.5], [1.5, 1.0]])]:
        with pytest.raises(CoefficientError, match="not positive definite"):
            assemble_stiffness(space, dataclasses.replace(example_1(), alpha=alpha))
    problem = dataclasses.replace(example_1(), alpha=constant([[1.0, 0.5], [-0.5, 1.0]]))
    assert assemble_stiffness(space, problem).shape == (space.n_dofs_total,) * 2


def count_walks(monkeypatch):
    """Count assembly.element_blocks calls per space, by identity."""
    walks, element_blocks = {}, assembly.element_blocks

    def counted(space, quad):
        walks[id(space)] = walks.get(id(space), 0) + 1
        return element_blocks(space, quad)

    monkeypatch.setattr(assembly, "element_blocks", counted)
    return walks


@pytest.mark.parametrize("fine_mesh, fine_degree", [(3, 4), (6, 2)],
                         ids=["two-level", "two-grid"])
def test_operators_walk_the_fine_space_three_times(fine_mesh, fine_degree, monkeypatch):
    """A, Npart and F walk the fine space once each, and the coarse full
    operator walks the coarse space twice; no separate alpha check walks."""
    walks = count_walks(monkeypatch)
    mesh = build_structured_mesh(3)
    coarse = build_space(mesh, 2)
    fine = build_space(refine_nested(mesh, fine_mesh // 3), fine_degree)
    IterationOperators(example_1(), coarse, fine)
    assert walks == {id(fine): 3, id(coarse): 2}


def test_galerkin_walks_its_space_three_times(monkeypatch):
    walks = count_walks(monkeypatch)
    space = build_space(build_structured_mesh(3), 2)
    galerkin_solve(space, example_1())
    assert walks == {id(space): 3}


def test_non_elliptic_alpha_is_refused_before_any_factor(monkeypatch):
    factors = []
    factor = algorithms.make_factor
    monkeypatch.setattr(algorithms, "make_factor", lambda A, solver="direct": (
        factors.append(A.shape) or factor(A, solver)))
    mesh = build_structured_mesh(4)
    for alpha in NON_ELLIPTIC_ALPHAS:
        problem = dataclasses.replace(example_1(), alpha=alpha)
        with pytest.raises(CoefficientError, match="not positive definite"):
            galerkin_solve(build_space(mesh, 2), problem)
        with pytest.raises(CoefficientError, match="not positive definite"):
            IterationOperators(problem, build_space(mesh, 3), build_space(mesh, 6))
    assert factors == []


def test_iterate_contracts_to_fine_galerkin_solution():
    """Each round shrinks the distance to the fine Galerkin solution by a
    mesh-dependent factor; enough rounds reach solver precision."""
    problem = example_1()
    coarse, fine = two_grid_spaces(3, 2, factor=3)
    reference = galerkin_solve(fine, problem)
    distances = [
        h1_distance(fine, iterate(problem, coarse, fine, k=k).current,
                    reference)
        for k in (1, 2, 3)
    ]
    assert distances[1] < 0.5 * distances[0]
    assert distances[2] < 0.5 * distances[1]
    settled = iterate(problem, coarse, fine, k=10)
    assert h1_distance(fine, settled.current, reference) <= 1e-10


# Inside this bound on |beta| + |gamma| over the smallest eigenvalue of alpha's
# symmetric part (both as the drawn coefficients below bound them), 30 rounds
# came within 5.5e-14 relative H1 distance of the fine Galerkin solution on
# 4,500 random draws; no draw below a ratio of 67 came further than 1e-13.
CONTRACTION_REGIME = 10.0
POLYNOMIAL = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)


def polynomial(c):
    """c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2: at most sum |c| in
    absolute value on the unit square."""
    return lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y


@st.composite
def random_problems(draw):
    """A polynomial problem, and |beta| + |gamma| over a lower bound of the
    smallest eigenvalue of alpha's symmetric part.  alpha is a0 + p, or the
    2x2 field a0 I + [[p0, p1], [p2, p3]], with a0 chosen so that the bound
    (Gershgorin's, for the matrix) is the drawn margin."""
    margin = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        c = draw(POLYNOMIAL)
        a0 = sum(map(abs, c)) + margin
        alpha = lambda x, y: a0 + polynomial(c)(x, y)
    else:
        c = [draw(POLYNOMIAL) for _ in range(4)]
        size = [sum(map(abs, ci)) for ci in c]
        a0 = max(size[0], size[3]) + (size[1] + size[2]) / 2 + margin
        p = [polynomial(ci) for ci in c]
        alpha = lambda x, y: np.stack([np.stack([a0 + p[0](x, y), p[1](x, y)], axis=-1),
                                       np.stack([p[2](x, y), a0 + p[3](x, y)], axis=-1)],
                                      axis=-2)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    lower = [[scale * ci for ci in draw(POLYNOMIAL)] for _ in range(3)]
    bx, by, gamma = map(polynomial, lower)
    spec = ProblemSpec(alpha=alpha, beta=lambda x, y: np.stack([bx(x, y), by(x, y)], axis=-1),
                       gamma=gamma, f=polynomial(draw(POLYNOMIAL)))
    return spec, sum(abs(ci) for row in lower for ci in row) / margin


@st.composite
def random_pairs(draw):
    """(M, diagonal, l, s): two-level l -> s with l < s <= 6, or two-grid P_l
    at refinement 2 where s is None, on M <= 4."""
    M, diagonal = draw(st.integers(1, 4)), draw(st.sampled_from(["down", "up"]))
    l = draw(st.integers(1, 6))
    return M, diagonal, l, draw(st.none() | st.integers(l + 1, 6)) if l < 6 else None


@settings(derandomize=True, deadline=None)
@given(random_problems(), random_pairs())
def test_rounds_reach_the_fine_galerkin_solution_on_random_problems(problem, pair):
    """The iteration's fixed point is the Galerkin solution on the fine
    space: inside the contraction regime 30 rounds reach it within 1e-9
    relative H1 distance.  Outside it a draw may be refused by SolverError
    (a singular coarse operator, rounds that stop contracting) or give
    finite coefficients, never anything else."""
    spec, ratio = problem
    M, diagonal, l, s = pair
    mesh = build_structured_mesh(M, diagonal)
    coarse = build_space(mesh, l)
    fine = build_space(refine_nested(mesh, 2), l) if s is None else build_space(mesh, s)
    try:
        u = iterate(spec, coarse, fine, k=30).current
    except SolverError:
        assert ratio > CONTRACTION_REGIME
        return
    assert np.all(np.isfinite(u))
    if ratio <= CONTRACTION_REGIME:
        reference = galerkin_solve(fine, spec)
        assert h1_distance(fine, u, reference) <= 1e-9 * h1_norm_discrete(fine, reference)


def test_fixed_point_when_solution_in_fine_space():
    problem = example_2()
    mesh = build_structured_mesh(3)
    fine = build_space(mesh, 6)
    state = iterate(problem, build_space(mesh, 3), fine, k=6)
    assert h1_error(fine, state.current, problem.exact_u, problem.exact_grad_u) <= 1e-10


def test_iteration_state_bookkeeping():
    problem = example_1()
    mesh = build_structured_mesh(3)
    state = iterate(problem, build_space(mesh, 1), build_space(mesh, 3), k=3)
    assert len(state.residual_history) == 3
    assert all(np.isfinite(r) for r in state.residual_history)
    assert state.residual_history[-1] <= state.residual_history[0]


def test_two_grid_rejects_bad_space_pairs():
    problem = example_1()
    mesh = build_structured_mesh(3)
    same = build_space(mesh, 2)
    with pytest.raises(ValueError):
        IterationOperators(problem, same, build_space(mesh, 2))
    with pytest.raises(ValueError):
        IterationOperators(problem, same, build_space(build_structured_mesh(5), 2))
    fine_mesh = refine_nested(mesh, 2)
    with pytest.raises(ValueError):
        IterationOperators(problem, same, build_space(fine_mesh, 3))


def test_two_level_rejects_non_increasing_degree():
    problem = example_1()
    coarse = build_space(build_structured_mesh(3), 3)
    with pytest.raises(ValueError):
        IterationOperators(problem, coarse, build_space(coarse.mesh, 3))
    with pytest.raises(ValueError):
        IterationOperators(problem, coarse, build_space(coarse.mesh, 2))


def test_run_correction_iteration_rejects_zero_rounds():
    problem = example_1()
    mesh = build_structured_mesh(2)
    ops = IterationOperators(problem, build_space(mesh, 1), build_space(mesh, 2))
    with pytest.raises(ValueError):
        run_correction_iteration(ops, 0)


def test_build_two_grid_spaces_shapes():
    """A two-grid row at factor 4 solves on M=3 and its M=12 refinement at
    the same degree."""
    config = RunConfig(example="1", algorithm="two-grid", l=2, s=None, k=1,
                       M_list=(3,), fine_factor=4)
    [row] = run_experiment(config)
    assert row.s_or_r == 4
    assert row.dofs_coarse == (2 * 3 + 1) ** 2
    assert row.dofs_fine == (2 * 12 + 1) ** 2


def test_reference_error_two_grid_small_case():
    """Frozen reference value: the sine problem at H=1/9, cubic elements,
    h=H^2, three rounds, measured against the interpolant of the exact
    solution in the fine space: 9.8925e-07 (reference digits)."""
    problem = example_1()
    coarse, fine = two_grid_spaces(9, 3, factor=9)
    state = iterate(problem, coarse, fine, k=3)
    reference = interpolate(fine, problem.exact_u)
    err = h1_distance(fine, state.current, reference)
    assert err == pytest.approx(9.8925e-07, rel=5e-2)
