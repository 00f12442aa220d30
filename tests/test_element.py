"""Reference elements and triangle quadrature.

The quadrature oracle is the closed form for monomials on the reference
triangle: integral of x^a y^b = a! b! / (a + b + 2)!.
"""

from math import factorial

import numpy as np
import pytest

from twolevelfem import (
    build_quadrature,
    build_reference_element,
    tabulate_basis,
)
from twolevelfem.element import MAX_DEGREE

DEGREES = [1, 2, 3, 4, 5, 6]


def monomial_integral(a, b):
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def random_triangle_points(n, rng):
    """Uniform samples of the open reference triangle."""
    p = rng.random((n, 2))
    flip = p.sum(axis=1) > 1.0
    p[flip] = 1.0 - p[flip]
    return p


@pytest.mark.parametrize("degree", DEGREES + [np.int64(3)])
def test_node_count(degree):
    elem = build_reference_element(degree)
    assert elem.n_basis == (degree + 1) * (degree + 2) // 2


@pytest.mark.parametrize("degree", DEGREES)
def test_lagrange_property(degree):
    elem = build_reference_element(degree)
    values, _ = tabulate_basis(elem, elem.nodes)
    assert np.abs(values - np.eye(elem.n_basis)).max() <= 1e-10


@pytest.mark.parametrize("degree", DEGREES)
def test_partition_of_unity(degree):
    elem = build_reference_element(degree)
    pts = random_triangle_points(50, np.random.default_rng(7))
    values, gradients = tabulate_basis(elem, pts)
    assert np.abs(values.sum(axis=1) - 1.0).max() <= 1e-10
    assert np.abs(gradients.sum(axis=1)).max() <= 1e-9


@pytest.mark.parametrize("degree", DEGREES)
def test_monomial_reproduction(degree):
    """Interpolating any monomial of total degree <= l at the nodes and
    re-evaluating reproduces it: the nodal basis spans the full space."""
    elem = build_reference_element(degree)
    pts = random_triangle_points(50, np.random.default_rng(11))
    values, _ = tabulate_basis(elem, pts)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            nodal = elem.nodes[:, 0] ** a * elem.nodes[:, 1] ** b
            exact = pts[:, 0] ** a * pts[:, 1] ** b
            assert np.abs(values @ nodal - exact).max() <= 1e-9


def test_linear_basis_closed_form():
    elem = build_reference_element(1)
    pts = random_triangle_points(20, np.random.default_rng(3))
    values, gradients = tabulate_basis(elem, pts)
    x, y = pts[:, 0], pts[:, 1]
    expected = np.column_stack([1.0 - x - y, x, y])
    assert np.abs(values - expected).max() <= 1e-12
    expected_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.abs(gradients - expected_grads[None]).max() <= 1e-12


def test_degree_six_nodal_at_first_node():
    elem = build_reference_element(6)
    assert elem.n_basis == 28
    values, _ = tabulate_basis(elem, [elem.nodes[0]])
    assert values[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(values[0, 1:]).max() <= 1e-10


def test_eval_basis_at_vertices_and_midpoint():
    values, _ = tabulate_basis(build_reference_element(1), [(0.0, 0.0)])
    assert np.allclose(values[0], [1.0, 0.0, 0.0], atol=1e-12)
    elem2 = build_reference_element(2)
    values, _ = tabulate_basis(elem2, [(0.5, 0.0)])
    node = np.argmin(np.abs(elem2.nodes - [0.5, 0.0]).sum(axis=1))
    expected = np.zeros(6)
    expected[node] = 1.0
    assert np.allclose(values[0], expected, atol=1e-10)


def test_centroid_sums():
    values, gradients = tabulate_basis(build_reference_element(3), [(1 / 3, 1 / 3)])
    assert values[0].sum() == pytest.approx(1.0, abs=1e-10)
    assert np.abs(gradients[0].sum(axis=0)).max() <= 1e-9


@pytest.mark.parametrize("degree", [0, 7, -1, np.int64(7), 3.0, "3"])
def test_rejects_degree_out_of_range(degree):
    with pytest.raises(ValueError):
        build_reference_element(degree)


def test_element_cache_returns_same_object():
    assert build_reference_element(3) is build_reference_element(3)


@pytest.mark.parametrize("min_degree", [1, 2, 4, 6, 8, 12, 15, np.int64(5)])
def test_quadrature_weight_sum_and_support(min_degree):
    rule = build_quadrature(min_degree)
    assert rule.exact_degree >= min_degree
    assert abs(rule.weights.sum() - 0.5) <= 1e-14
    assert np.all(rule.weights > 0)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert np.all(x >= -1e-15) and np.all(y >= -1e-15)
    assert np.all(x + y <= 1.0 + 1e-14)


@pytest.mark.parametrize("min_degree", range(1, 22))
def test_quadrature_monomial_exactness(min_degree):
    """The conical product rule: n = d//2 + 1 points per axis, exact to
    total degree 2n - 1, with positive weights at points of the triangle."""
    rule = build_quadrature(min_degree)
    n = min_degree // 2 + 1
    assert len(rule.weights) == n * n
    assert rule.exact_degree == 2 * n - 1
    assert np.all(rule.weights > 0)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert np.all(x >= -1e-15) and np.all(y >= -1e-15) and np.all(x + y <= 1.0 + 1e-14)
    for a in range(rule.exact_degree + 1):
        for b in range(rule.exact_degree + 1 - a):
            approx = float(rule.weights @ (x**a * y**b))
            exact = monomial_integral(a, b)
            assert abs(approx - exact) <= 1e-13 * max(1.0, abs(exact))


def test_quadrature_frozen_values():
    rule4 = build_quadrature(4)
    x, y = rule4.points[:, 0], rule4.points[:, 1]
    assert float(rule4.weights @ (x**2 * y**2)) == pytest.approx(1 / 180, rel=1e-14)
    rule12 = build_quadrature(12)
    x, y = rule12.points[:, 0], rule12.points[:, 1]
    # 6! * 6! / 14! = 1/168168
    assert float(rule12.weights @ (x**6 * y**6)) == pytest.approx(1 / 168168, rel=1e-14)
    assert float(build_quadrature(1).weights.sum()) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("degree", [1, 2])
def test_quadrature_integrates_basis_products(degree):
    """Products of basis functions, integrated through the rule, match the
    closed-form integral computed from the monomial expansion."""
    elem = build_reference_element(degree)
    rule = build_quadrature(2 * degree + 3)
    values, _ = tabulate_basis(elem, rule.points)
    approx = values.T @ (rule.weights[:, None] * values)

    n = elem.n_basis
    exact = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for (a, b), ci in zip(elem.powers, elem.basis_coefficients[i]):
                for (c, d), cj in zip(elem.powers, elem.basis_coefficients[j]):
                    acc += ci * cj * monomial_integral(a + c, b + d)
            exact[i, j] = acc
    assert np.abs(approx - exact).max() <= 1e-12


@pytest.mark.parametrize("bad", [0, -2, 2.5, np.int64(0), 5.0, "5"])
def test_quadrature_rejects_bad_degree(bad):
    with pytest.raises(ValueError):
        build_quadrature(bad)


def test_nodal_basis_is_well_conditioned_up_to_max_degree():
    """The basis comes from inverting the monomial Vandermonde, whose
    condition number is that of its inverse: 3.7 at degree 1 up to 4.7e5 at
    degree 6.  Raising MAX_DEGREE past where the inverse stays accurate
    trips this test."""
    for degree in range(1, MAX_DEGREE + 1):
        assert np.linalg.cond(build_reference_element(degree).basis_coefficients) < 1e6
