"""Error norms, convergence-order estimation, timing helpers."""

import dataclasses
import time

import numpy as np
import pytest

from twolevelfem import (
    ExperimentRow,
    ProblemSpec,
    assemble_nonsym,
    assemble_stiffness,
    build_space,
    build_structured_mesh,
    estimate_orders,
    h1_distance,
    h1_error,
    h1_norm_discrete,
    interpolate,
    time_run,
)
from twolevelfem.mesh import lattice
from twolevelfem.problems import example_1, example_2

# H1 norm of sin(pi x) sin(pi y): integral of u^2 is 1/4, of |grad u|^2 is
# pi^2/2.
EX1_H1_NORM = float(np.sqrt(0.25 + np.pi**2 / 2))  # 2.277016073844161

# H1 norm of x(1-x)^2 y(1-y)^2: with g(t) = t(1-t)^2, integral of g^2 is
# 1/105 and of g'^2 is 2/15, so the squared norm is (1/105)^2 + 2*(2/15)(1/105)
# = 29/105^2; the norm is sqrt(29)/105.
EX2_H1_NORM = float(np.sqrt(29.0) / 105.0)  # 0.051287283877471466

# Unit coefficients: the stiffness plus the lower-order (here: mass) matrix
# is the H1 energy matrix.
UNIT = ProblemSpec(
    alpha=lambda x, y: np.ones_like(x),
    beta=lambda x, y: np.zeros(np.shape(x) + (2,)),
    gamma=lambda x, y: np.ones_like(x),
    f=lambda x, y: np.zeros_like(x),
)


def rows_from(errors, M_values):
    return [
        ExperimentRow(
            M=M, H=1.0 / M, l=3, s_or_r=6, k=3, dofs_coarse=0, dofs_fine=0,
            h1_error=e, scaled_error=e, cpu_seconds=None,
        )
        for M, e in zip(M_values, errors)
    ]


def test_interpolant_of_linear_function_has_tiny_error():
    space = build_space(build_structured_mesh(4), 1)
    g = lambda x, y: x + y
    grad = lambda x, y: np.stack([np.ones_like(x), np.ones_like(y)], axis=-1)
    coeffs = interpolate(space, g)
    assert h1_error(space, coeffs, g, grad) <= 1e-12


def test_zero_coefficients_give_exact_solution_norm_sine():
    problem = example_1()
    space = build_space(build_structured_mesh(4), 2)
    err = h1_error(space, np.zeros(space.n_dofs_total), problem.exact_u,
                   problem.exact_grad_u)
    assert err == pytest.approx(EX1_H1_NORM, abs=1e-10)


def test_zero_coefficients_give_exact_solution_norm_polynomial():
    problem = example_2()
    space = build_space(build_structured_mesh(3), 2)
    err = h1_error(space, np.zeros(space.n_dofs_total), problem.exact_u,
                   problem.exact_grad_u)
    assert err == pytest.approx(EX2_H1_NORM, abs=1e-13)


def test_h1_error_vanishes_only_at_the_interpolant():
    """x(1-x)^2 y(1-y)^2 lies in the degree-6 space: its interpolant has
    zero error, and perturbing one coefficient breaks that."""
    problem = example_2()
    space = build_space(build_structured_mesh(2), 6)
    coeffs = interpolate(space, problem.exact_u)
    assert h1_error(space, coeffs, problem.exact_u, problem.exact_grad_u) <= 1e-13
    bumped = coeffs.copy()
    bumped[0] += 1e-3  # DOF 0 is off the boundary: the interior DOFs come first
    assert h1_error(space, bumped, problem.exact_u, problem.exact_grad_u) > 1e-5


def test_discrete_norm_matches_quadrature_norm():
    """For a function inside the space, the coefficient-based norm and the
    quadrature norm against the same function agree."""
    space = build_space(build_structured_mesh(3), 3)
    g = lambda x, y: x**2 * y - y**3 + 0.5 * x
    grad = lambda x, y: np.stack([2 * x * y + 0.5, x**2 - 3 * y**2], axis=-1)
    coeffs = interpolate(space, g)
    nrm = h1_norm_discrete(space, coeffs)
    ref = h1_error(space, np.zeros_like(coeffs), g, grad)
    assert nrm == pytest.approx(ref, abs=1e-12)


def test_h1_distance_properties():
    space = build_space(build_structured_mesh(3), 2)
    rng = np.random.default_rng(13)
    a = rng.standard_normal(space.n_dofs_total)
    b = rng.standard_normal(space.n_dofs_total)
    assert h1_distance(space, a, a) <= 1e-13
    assert h1_distance(space, a, b) == pytest.approx(h1_distance(space, b, a), rel=1e-12)
    # Triangle inequality on the underlying norm.
    assert h1_norm_discrete(space, a + b) <= (
        h1_norm_discrete(space, a) + h1_norm_discrete(space, b) + 1e-12
    )
    with pytest.raises(ValueError):
        h1_norm_discrete(space, np.zeros(3))
    # A wrong length in either argument is refused, not broadcast.
    for wrong in ([5.0], 0.0, np.zeros(3)):
        for args in ((a, wrong), (wrong, a)):
            with pytest.raises(ValueError, match=f"expected {space.n_dofs_total} coefficients"):
                h1_distance(space, *args)
    problem = example_2()
    for wrong in (space.n_dofs_total + 2, space.n_dofs_total - 3):
        with pytest.raises(ValueError):
            h1_error(space, np.zeros(wrong), problem.exact_u, problem.exact_grad_u)


@pytest.mark.parametrize("diagonal", ["down", "up"])
@pytest.mark.parametrize("degree", range(1, 7))
def test_discrete_norm_matches_assembled_energy(degree, diagonal):
    """The quadrature norm equals sqrt(c^T (K + Mass) c) with the stiffness
    and mass matrices of unit coefficients."""
    space = build_space(build_structured_mesh(3, diagonal=diagonal), degree)
    c = np.random.default_rng(degree).standard_normal(space.n_dofs_total)
    energy = assemble_stiffness(space, UNIT) + assemble_nonsym(space, UNIT)
    assert h1_norm_discrete(space, c) == pytest.approx(np.sqrt(c @ energy @ c), rel=1e-12)


def test_norms_on_a_mesh_where_every_jacobian_differs():
    """Interior vertices jittered by up to 0.2/M give every triangle its own
    Jacobian.  P1 reproduces u = x + 2y exactly on any mesh of the square:
    the integral of |grad u|^2 is 5 and that of u^2 is 8/3."""
    M = 6
    mesh = build_structured_mesh(M)
    jitter = np.random.default_rng(5).uniform(-0.2 / M, 0.2 / M, mesh.vertices.shape)
    vertices = mesh.vertices + jitter * ~lattice(mesh.M)[1][:, None]
    mesh = dataclasses.replace(mesh, vertices=vertices)
    jacobians = mesh.affine[1].reshape(-1, 4)
    assert len(np.unique(jacobians, axis=0)) == mesh.n_triangles

    space = build_space(mesh, 1)
    c = np.empty(space.n_dofs_total)
    # P1 lattice points are the vertices; numbering gives each one's DOF.
    c[space.numbering] = vertices[:, 0] + 2.0 * vertices[:, 1]
    assert c @ assemble_stiffness(space, UNIT) @ c == pytest.approx(5.0, rel=1e-12)
    assert h1_norm_discrete(space, c) ** 2 == pytest.approx(5.0 + 8.0 / 3.0, rel=1e-12)


def test_estimate_orders_exact_powers():
    rows = rows_from([1e-2, 1e-4], [10, 100])
    pairwise, slope = estimate_orders(rows)
    assert pairwise == [pytest.approx(2.0, abs=1e-12)]
    assert slope == pytest.approx(2.0, abs=1e-12)


def test_estimate_orders_on_reference_sequences():
    """Frozen reference error columns: the degree-6 two-level sequence has
    pairwise orders near 6, the s=4 sequence near 4."""
    sixth = rows_from([5.7750e-08, 3.0706e-08, 1.7339e-08, 1.0290e-08], [9, 10, 11, 12])
    pairwise, slope = estimate_orders(sixth)
    assert all(abs(p - 6.0) <= 0.05 for p in pairwise)
    assert slope == pytest.approx(6.0, abs=0.05)

    fourth = rows_from([3.6409e-05, 2.3903e-05, 1.6334e-05, 1.1538e-05], [9, 10, 11, 12])
    pairwise, slope = estimate_orders(fourth)
    assert all(abs(p - 4.0) <= 0.05 for p in pairwise)
    assert slope == pytest.approx(4.0, abs=0.05)


def test_estimate_orders_excludes_degenerate_rows():
    rows = rows_from([1e-2, 0.0, 1e-4], [10, 50, 100])
    with pytest.warns(UserWarning):
        pairwise, slope = estimate_orders(rows)
    assert pairwise == [pytest.approx(2.0, abs=1e-12)]
    assert slope == pytest.approx(2.0, abs=1e-12)


def test_estimate_orders_needs_two_usable_rows():
    with pytest.raises(ValueError):
        estimate_orders(rows_from([1e-3], [10]))
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            estimate_orders(rows_from([np.nan, 1e-3], [10, 20]))


def test_estimate_orders_scale_invariant():
    errors = [3.2e-5, 1.9e-5, 1.1e-5, 0.8e-5]
    _, slope1 = estimate_orders(rows_from(errors, [9, 10, 11, 12]))
    _, slope2 = estimate_orders(rows_from([70 * e for e in errors], [9, 10, 11, 12]))
    assert slope1 == pytest.approx(slope2, rel=1e-12)


def test_time_run_returns_result_and_duration():
    result, seconds = time_run(lambda: 42)
    assert result == 42
    assert 0.0 <= seconds < 1e-3

    def slow():
        time.sleep(0.02)
        return "done"

    result, seconds = time_run(slow)
    assert result == "done"
    assert seconds >= 0.02
