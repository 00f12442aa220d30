"""Correction iterations: configuration, degeneracies, convergence behavior."""

import numpy as np
import pytest

from twolevelfem import (
    IterationOperators,
    ProblemSpec,
    build_space,
    build_structured_mesh,
    galerkin_solve,
    h1_distance,
    h1_error,
    interpolate,
    refine_nested,
    run_correction_iteration,
    two_level_iterate,
)
from twolevelfem.cli import RunConfig, UsageError, run_experiment
from twolevelfem.problems import example_1, example_2


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
    state = two_level_iterate(spec, 1, 2, mesh, k=1)
    fine = build_space(mesh, 2)
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
    u = np.zeros(fine.n_dofs_total)
    e = ops.correction(u)
    residual = ops.F_fine - ops.fine_operator_apply(u + ops.prolong @ e)
    restricted = (ops.prolong.T @ residual)[ops.coarse_interior]
    scale = np.linalg.norm((ops.prolong.T @ ops.F_fine)[ops.coarse_interior])
    assert np.abs(restricted).max() <= 1e-10 * max(1.0, scale)


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


def test_fixed_point_when_solution_in_fine_space():
    problem = example_2()
    state = two_level_iterate(problem, 3, 6, build_structured_mesh(3), k=6)
    fine = build_space(build_structured_mesh(3), 6)
    assert h1_error(fine, state.current, problem.exact_u, problem.exact_grad_u) <= 1e-10


def test_iteration_state_bookkeeping():
    problem = example_1()
    mesh = build_structured_mesh(3)
    state = two_level_iterate(problem, 1, 3, mesh, k=3)
    assert state.iteration == 3
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
    mesh = build_structured_mesh(3)
    with pytest.raises(ValueError):
        two_level_iterate(problem, 3, 3, mesh, k=1)
    with pytest.raises(ValueError):
        two_level_iterate(problem, 3, 2, mesh, k=1)


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
