"""Gauss-Legendre rule on (0,1) and the periodic rectangle rule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracrbf.quadrature import gauss_legendre_01, periodic_rule
from reference import gauss_legendre_01_ref


def test_gauss_monomial_exactness():
    # exact through degree 2K-1: integral of x^m over (0,1) is 1/(m+1)
    for K in (1, 2, 3, 4, 8, 16, 32):
        nodes, weights = gauss_legendre_01(K)
        for m in range(2 * K):
            got = float(np.dot(weights, nodes ** m))
            assert abs(got - 1.0 / (m + 1)) <= 1e-13


def test_gauss_rule_structure():
    nodes, weights = gauss_legendre_01(12)
    assert nodes.size == 12
    assert np.all(np.diff(nodes) > 0.0)
    assert np.all(nodes > 0.0) and np.all(nodes < 1.0)
    assert np.all(weights > 0.0)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-15)
    # symmetry of the rule about 1/2
    assert np.allclose(nodes + nodes[::-1], 1.0, atol=1e-14)
    assert np.allclose(weights, weights[::-1], atol=1e-14)


@pytest.mark.parametrize("K", [1, 2, 10, 32, 48, 96, 200, 512])
def test_gauss_rule_matches_two_recurrence_form_bitwise(K):
    # one recurrence serves the Newton loop and the weights with the same
    # operations, so the rule keeps its bits
    for got, ref in zip(gauss_legendre_01(K), gauss_legendre_01_ref(K)):
        assert np.array_equal(got, ref)


def test_gauss_order_limits():
    gauss_legendre_01(1)
    gauss_legendre_01(512)
    with pytest.raises(ValueError):
        gauss_legendre_01(0)
    with pytest.raises(ValueError):
        gauss_legendre_01(513)


def test_gauss_not_exact_beyond_design_degree():
    # degree 2K fails for small K, confirming the rule is not accidentally
    # exact past its design order
    nodes, weights = gauss_legendre_01(2)
    got = float(np.dot(weights, nodes ** 4))
    assert abs(got - 0.2) > 1e-4


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=16),
       K=st.integers(8, 24))
def test_gauss_random_polynomials(coeffs, K):
    # any polynomial of degree <= 15 < 2K-1 integrates exactly
    nodes, weights = gauss_legendre_01(K)
    poly = np.polynomial.Polynomial(coeffs)
    got = float(np.dot(weights, poly(nodes)))
    ref = float(poly.integ()(1.0) - poly.integ()(0.0))
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_periodic_rule_trig_exactness():
    # the M-point rectangle rule integrates e^(i k theta) exactly for
    # 0 < |k| < M and gives 2 pi for k = 0
    angles, weight = periodic_rule(16)
    assert weight * len(angles) == pytest.approx(2.0 * np.pi)
    for k in range(1, 16):
        s = weight * np.sum(np.cos(k * angles))
        assert abs(s) <= 1e-12
    # k = M aliases to the constant
    s = weight * np.sum(np.cos(16 * angles))
    assert s == pytest.approx(2.0 * np.pi)


def test_periodic_rule_guard():
    with pytest.raises(ValueError):
        periodic_rule(0)


@pytest.mark.parametrize("rule, order", [(gauss_legendre_01, 10.7), (periodic_rule, 6.9),
                                         (gauss_legendre_01, True), (periodic_rule, np.float64(6.0))])
def test_rules_reject_an_order_that_is_not_an_integer(rule, order):
    # int() used to truncate the order silently: 10.7 built a 10-node rule
    with pytest.raises(ValueError, match="must be an integer"):
        rule(order)


def test_rules_accept_numpy_integer_orders():
    for got, want in zip(gauss_legendre_01(np.int64(10)), gauss_legendre_01(10)):
        assert np.array_equal(got, want)
    for got, want in zip(periodic_rule(np.int32(6)), periodic_rule(6)):
        assert np.array_equal(got, want)
