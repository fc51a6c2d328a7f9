import math

import numpy as np
import pytest

from mce.quadrature import edge_rule, triangle_barycentric


def xy_rule(degree):
    """Points (x, y) = (lambda_1, lambda_2) on the reference triangle and
    the weights of the barycentric rule."""
    bary, wts = triangle_barycentric(degree)
    return bary[:, 1:], wts


def exact_monomial(i, j):
    # int over reference triangle of x^i y^j = i! j! / (i+j+2)!
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_monomial_exactness(degree):
    pts, wts = xy_rule(degree)
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            approx = np.sum(wts * pts[:, 0] ** i * pts[:, 1] ** j)
            assert approx == pytest.approx(exact_monomial(i, j), rel=1e-13)


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_weights_positive_and_sum_half(degree):
    _, wts = xy_rule(degree)
    assert np.all(wts > 0)
    assert np.sum(wts) == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_barycentric_points_inside(degree):
    # lambda_0 is stored, not derived: each point's coordinates are
    # positive and sum to 1
    bary, _ = triangle_barycentric(degree)
    assert np.all(bary > 0)
    np.testing.assert_allclose(bary.sum(axis=1), 1.0, rtol=1e-15)


def test_x2y_integral():
    pts, wts = xy_rule(4)
    val = np.sum(wts * pts[:, 0] ** 2 * pts[:, 1])
    assert val == pytest.approx(1 / 60, rel=1e-13)


def test_unsupported_degree_rejected():
    with pytest.raises(ValueError):
        triangle_barycentric(7)
    with pytest.raises(ValueError):
        triangle_barycentric(0)


@pytest.mark.parametrize("degree", [1, 3, 5])
def test_odd_degrees_rejected(degree):
    # the library integrates at degrees 2, 4 and 6 only
    with pytest.raises(ValueError, match="need 2, 4 or 6"):
        triangle_barycentric(degree)


def test_edge_rule_exactness():
    x, w = edge_rule(5)
    for k in range(10):  # 5-point Gauss exact through degree 9
        assert np.sum(w * x**k) == pytest.approx(1 / (k + 1), rel=1e-13)


@pytest.mark.parametrize("npoints", [3, 5])
def test_edge_rule_computed_once_and_read_only(npoints):
    """Every call with the same point count returns the same two arrays,
    bit for bit the Gauss-Legendre rule mapped to [0, 1], and no caller
    can change them."""
    x, w = edge_rule(npoints)
    again = edge_rule(npoints)
    assert again[0] is x and again[1] is w
    ref_x, ref_w = np.polynomial.legendre.leggauss(npoints)
    assert np.array_equal(x, 0.5 * (ref_x + 1.0))
    assert np.array_equal(w, 0.5 * ref_w)
    with pytest.raises(ValueError, match="read-only"):
        x[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        w *= 2.0
