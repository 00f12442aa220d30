"""End-to-end acceptance gate.

Every shipped experiment preset must reproduce its frozen reference error
table within the stated tolerance, the DOF table must match exactly, the
two-level runs must beat the two-grid runs on wall time, and the structural
invariants of mesh, element, assembly and iteration must hold.  Each check
prints one status line; run pytest with -s to see them as they complete.
"""

from math import factorial

import numpy as np
import pytest

from twolevelfem import (
    IterationOperators,
    ProblemSpec,
    assemble_nonsym,
    assemble_stiffness,
    build_prolongation,
    build_quadrature,
    build_reference_element,
    build_space,
    build_structured_mesh,
    estimate_orders,
    galerkin_solve,
    h1_distance,
    refine_nested,
    run_correction_iteration,
    tabulate_basis,
    time_run,
)
from twolevelfem.cli import RunConfig, dof_table, run_experiment
from twolevelfem.problems import example_1

M_SWEEP = (9, 10, 11, 12)

# The DOF table over M = 9..12: degree-3 counts on the base mesh and on its
# squared refinement, then degree 4/5/6 counts on the base mesh.
DOF_TABLE_EXPECTED = [
    ["1/9", "784", "59536", "1369", "2116", "3025"],
    ["1/10", "961", "90601", "1681", "2601", "3721"],
    ["1/11", "1156", "132496", "2025", "3136", "4489"],
    ["1/12", "1369", "187489", "2401", "3721", "5329"],
]

# Frozen reference H1-error sequences (distance to the degree-matched
# interpolant of the exact solution) for the shipped presets at M = 9..12.
EX1_TWO_GRID = [9.8925e-07, 5.2609e-07, 2.9711e-07, 1.7634e-07]
EX1_DEGREE6 = [5.7750e-08, 3.0706e-08, 1.7339e-08, 1.0290e-08]
EX1_DEGREE4 = [3.6409e-05, 2.3903e-05, 1.6334e-05, 1.1538e-05]
EX1_DEGREE5 = [1.6093e-06, 9.5141e-07, 5.9129e-07, 3.8298e-07]
EX2_TWO_GRID = [6.0567e-08, 3.2255e-08, 1.8235e-08, 1.0832e-08]
EX2_DEGREE4 = [1.9981e-06, 1.3129e-06, 8.9783e-07, 6.3456e-07]
EX2_DEGREE5 = [5.2140e-08, 3.0796e-08, 1.9126e-08, 1.2381e-08]

VALUE_RTOL = 0.05
ORDER_ATOL = 0.2


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def sweep(example, algorithm, l, s=None, k=3, **kwargs):
    config = RunConfig(
        example=example, algorithm=algorithm, l=l, s=s, k=k,
        M_list=M_SWEEP, **kwargs,
    )
    return time_run(lambda: run_experiment(config))


def max_rel_dev(rows, reference):
    return max(
        abs(row.h1_error - ref) / ref for row, ref in zip(rows, reference)
    )


@pytest.fixture(scope="module")
def ex1_two_grid():
    return sweep("1", "two-grid", 3)


@pytest.fixture(scope="module")
def ex1_degree6():
    return sweep("1", "two-level", 3, s=6)


@pytest.fixture(scope="module")
def ex1_degree4():
    return sweep("1", "two-level", 3, s=4)


@pytest.fixture(scope="module")
def ex1_degree5():
    return sweep("1", "two-level", 3, s=5)


@pytest.fixture(scope="module")
def ex2_two_grid():
    return sweep("2", "two-grid", 3)


@pytest.fixture(scope="module")
def ex2_degree4():
    return sweep("2", "two-level", 3, s=4)


@pytest.fixture(scope="module")
def ex2_degree5():
    return sweep("2", "two-level", 3, s=5)


@pytest.fixture(scope="module")
def ex2_degree6():
    # In this preset the exact solution lies in the fine space, so the
    # meaningful check is the true H1 error, not the interpolant distance.
    return sweep("2", "two-level", 3, s=6, error_against="exact")


def test_criterion_1_dof_table():
    (header, body), seconds = time_run(lambda: dof_table(M_SWEEP, (3, 4, 5, 6)))
    cells = [[str(c) for c in row] for row in body]
    ok = cells == DOF_TABLE_EXPECTED and seconds < 1.0
    report(1, "dof table", ok,
           f"{sum(c == e for r, w in zip(cells, DOF_TABLE_EXPECTED) for c, e in zip(r, w))}"
           f"/24 cells exact, {seconds:.3f} s")


def test_criterion_2_two_level_degree6_errors(ex1_degree6):
    rows, wall = ex1_degree6
    dev = max_rel_dev(rows, EX1_DEGREE6)
    scaled = [row.scaled_error for row in rows]
    flatness = max(scaled) / min(scaled)
    ok = dev <= VALUE_RTOL and flatness <= 1.05 and wall < 30.0
    report(2, "two-level degree 3->6 errors", ok,
           f"max dev {dev:.2%}, scaled max/min {flatness:.4f}, {wall:.1f} s")


def test_criterion_3_two_grid_errors(ex1_two_grid):
    rows, wall = ex1_two_grid
    dev = max_rel_dev(rows, EX1_TWO_GRID)
    largest = rows[-1]
    ok = (dev <= VALUE_RTOL and largest.dofs_fine == 187489
          and largest.cpu_seconds < 300.0)
    report(3, "two-grid errors", ok,
           f"max dev {dev:.2%}, largest run {largest.dofs_fine} dofs "
           f"in {largest.cpu_seconds:.1f} s (wall {wall:.1f} s)")


def test_criterion_4_intermediate_degrees(ex1_degree4, ex1_degree5):
    rows4, _ = ex1_degree4
    rows5, _ = ex1_degree5
    dev4 = max_rel_dev(rows4, EX1_DEGREE4)
    dev5 = max_rel_dev(rows5, EX1_DEGREE5)
    orders4, _ = estimate_orders(rows4)
    orders5, _ = estimate_orders(rows5)
    off4 = max(abs(p - 4.0) for p in orders4)
    off5 = max(abs(p - 5.0) for p in orders5)
    ok = dev4 <= VALUE_RTOL and dev5 <= VALUE_RTOL and off4 <= ORDER_ATOL and off5 <= ORDER_ATOL
    report(4, "two-level degree 4 and 5 errors", ok,
           f"max dev {dev4:.2%}/{dev5:.2%}, order offsets {off4:.3f}/{off5:.3f}")


def test_criterion_5_polynomial_problem(ex2_two_grid, ex2_degree4, ex2_degree5,
                                        ex2_degree6):
    devs = [
        max_rel_dev(ex2_degree4[0], EX2_DEGREE4),
        max_rel_dev(ex2_degree5[0], EX2_DEGREE5),
        max_rel_dev(ex2_two_grid[0], EX2_TWO_GRID),
    ]
    exact_capture = max(row.h1_error for row in ex2_degree6[0])
    ok = max(devs) <= VALUE_RTOL and exact_capture <= 1e-10
    report(5, "polynomial-solution errors", ok,
           f"max dev {max(devs):.2%}, degree-6 true error {exact_capture:.2e}")


def test_criterion_6_convergence_slopes(ex1_two_grid, ex1_degree4, ex1_degree5,
                                        ex1_degree6, ex2_degree4, ex2_degree5):
    slopes = {
        4.0: [estimate_orders(ex1_degree4[0])[1], estimate_orders(ex2_degree4[0])[1]],
        5.0: [estimate_orders(ex1_degree5[0])[1], estimate_orders(ex2_degree5[0])[1]],
        6.0: [estimate_orders(ex1_degree6[0])[1], estimate_orders(ex1_two_grid[0])[1]],
    }
    worst = max(
        abs(slope - target) for target, values in slopes.items() for slope in values
    )
    ok = worst <= ORDER_ATOL
    measured = ", ".join(
        f"{slope:.3f}" for values in slopes.values() for slope in values
    )
    report(6, "regression slopes", ok, f"slopes {measured}, worst offset {worst:.3f}")


def test_criterion_7_relative_cost(ex1_degree6, ex1_two_grid):
    fast = [row.cpu_seconds for row in ex1_degree6[0]]
    slow = [row.cpu_seconds for row in ex1_two_grid[0]]
    ratios = [f / s for f, s in zip(fast, slow)]
    ok = all(f < s for f, s in zip(fast, slow)) and max(ratios) < 0.2
    report(7, "two-level beats two-grid on time", ok,
           "ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def _mesh_failures():
    failures = []
    for M in range(1, 17):
        mesh = build_structured_mesh(M)
        if mesh.vertices.shape[0] != (M + 1) ** 2:
            failures.append(f"M={M} vertex count")
        if mesh.triangles.shape[0] != 2 * M * M:
            failures.append(f"M={M} triangle count")
        if mesh.edges.shape[0] != (M + 1) ** 2 + 2 * M * M - 1:
            failures.append(f"M={M} edge count")
        tri = mesh.vertices[mesh.triangles]
        d1 = tri[:, 1] - tri[:, 0]
        d2 = tri[:, 2] - tri[:, 0]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if not np.allclose(areas, 0.5 / M**2, atol=1e-14):
            failures.append(f"M={M} areas")

    for M, factor in [(2, 2), (3, 3)]:
        coarse = build_structured_mesh(M)
        fine = refine_nested(coarse, factor)
        cv = {tuple(np.round(p, 12)) for p in coarse.vertices}
        fv = {tuple(np.round(p, 12)) for p in fine.vertices}
        if not cv <= fv:
            failures.append(f"M={M} r={factor} vertex nesting")
        centroids = fine.vertices[fine.triangles].mean(axis=1)
        fx = centroids[:, 0] * M - np.floor(centroids[:, 0] * M)
        fy = centroids[:, 1] * M - np.floor(centroids[:, 1] * M)
        ci = np.floor(centroids[:, 0] * M).astype(int)
        cj = np.floor(centroids[:, 1] * M).astype(int)
        parent = 2 * (cj * M + ci) + (fx + fy >= 1.0)
        counts = np.bincount(parent, minlength=2 * M * M)
        if not np.all(counts == factor**2):
            failures.append(f"M={M} r={factor} refinement fibers")
    return failures


def _element_failures():
    failures = []
    rng = np.random.default_rng(5)
    pts = rng.random((40, 2))
    flip = pts.sum(axis=1) > 1.0
    pts[flip] = 1.0 - pts[flip]
    for degree in range(1, 7):
        elem = build_reference_element(degree)
        at_nodes, _ = tabulate_basis(elem, elem.nodes)
        if np.max(np.abs(at_nodes - np.eye(elem.n_basis))) > 1e-10:
            failures.append(f"degree {degree} nodal basis")
        vals, grads = tabulate_basis(elem, pts)
        if np.max(np.abs(vals.sum(axis=1) - 1.0)) > 1e-10:
            failures.append(f"degree {degree} partition of unity")
        if np.max(np.abs(grads.sum(axis=1))) > 1e-9:
            failures.append(f"degree {degree} gradient sum")
        quad = build_quadrature(2 * degree + 3)
        if abs(quad.weights.sum() - 0.5) > 1e-14 or np.any(quad.weights <= 0):
            failures.append(f"degree {degree} quadrature weights")
        for a, b in [(0, 0), (1, 2), (3, 1), (2, 2)]:
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = quad.weights @ (quad.points[:, 0] ** a * quad.points[:, 1] ** b)
            if abs(got - exact) > 1e-13:
                failures.append(f"degree {degree} quadrature x^{a} y^{b}")
    return failures


def _assembly_failures():
    failures = []
    problem = example_1()
    mesh = build_structured_mesh(3)
    coarse = build_space(mesh, 2)
    fine = build_space(mesh, 4)

    K = assemble_stiffness(fine, problem)
    if abs(K - K.T).max() > 1e-12:
        failures.append("stiffness symmetry")

    N = assemble_nonsym(fine, problem)
    mass_form = ProblemSpec(
        alpha=problem.alpha, beta=problem.beta,
        gamma=lambda x, y: np.ones_like(x), f=problem.f,
    )
    mass = assemble_nonsym(fine, mass_form)
    if abs(N - (-10.0) * mass).max() > 1e-10:
        failures.append("lower-order term vs scaled mass")

    P = build_prolongation(coarse, fine).matrix
    K2 = assemble_stiffness(coarse, problem)
    N2 = assemble_nonsym(coarse, problem)
    projected = P.T @ (K + N) @ P
    if abs(projected - (K2 + N2)).max() > 1e-10:
        failures.append("projected operator identity")
    return failures


def _iteration_failures():
    failures = []
    problem = example_1()

    plain = ProblemSpec(
        alpha=problem.alpha, beta=problem.beta,
        gamma=lambda x, y: np.zeros_like(x), f=problem.f,
    )
    mesh = build_structured_mesh(4)
    fine = build_space(mesh, 2)
    ops = IterationOperators(plain, build_space(mesh, 1), fine)
    one_round = run_correction_iteration(ops, k=1).current
    direct = galerkin_solve(fine, plain)
    if h1_distance(fine, one_round, direct) > 1e-10:
        failures.append("single-round recovery without lower-order terms")

    mesh3 = build_structured_mesh(3)
    ops = IterationOperators(problem, build_space(mesh3, 2), build_space(mesh3, 4))
    u0 = np.zeros(ops.fine.n_interior)
    e = ops.correction(ops.fine_residual(u0))
    residual = ops.fine_residual(u0 + ops.prolong @ e)
    restricted = ops.prolong.T @ residual
    scale = max(1.0, np.max(np.abs(ops.prolong.T @ ops.F_fine)))
    if np.max(np.abs(restricted)) > 1e-10 * scale:
        failures.append("coarse residual orthogonality")
    return failures


def test_criterion_8_property_suite():
    def batch():
        return (_mesh_failures() + _element_failures() + _assembly_failures()
                + _iteration_failures())

    failures, seconds = time_run(batch)
    ok = not failures and seconds < 60.0
    report(8, "structural invariants", ok,
           f"{len(failures)} failures{': ' if failures else ''}"
           f"{'; '.join(failures)}, {seconds:.1f} s")
