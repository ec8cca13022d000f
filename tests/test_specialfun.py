"""Gamma, Gauss hypergeometric function, and the kernel coefficients,
cross-checked against mpmath at 50-digit working precision."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracrbf.specialfun import (FracParams, coeff_c, coeff_eta, coeff_mu,
                                gamma_fn, gauss_2f1)

mpmath.mp.dps = 50


def test_params_validation():
    FracParams(1, 0.5)
    FracParams(2, 1.0)
    with pytest.raises(ValueError):
        FracParams(3, 0.5)
    with pytest.raises(ValueError):
        FracParams(1, 2.0)
    with pytest.raises(ValueError):
        FracParams(1, 0.0)
    with pytest.raises(ValueError):
        FracParams(1, 1.0)


def test_gamma_against_mpmath():
    xs = [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.25, 25.0,
          -0.3, -0.5, -1.7, -4.2, -9.5]
    for x in xs:
        ref = float(mpmath.gamma(x))
        assert gamma_fn(x) == pytest.approx(ref, rel=1e-13)


def test_gamma_integer_factorials():
    for n in range(1, 15):
        assert gamma_fn(n) == pytest.approx(math.factorial(n - 1), rel=1e-14)


def test_gamma_rejects_poles():
    for x in (0.0, -1.0, -5.0):
        with pytest.raises(ValueError):
            gamma_fn(x)


def test_2f1_log_identity():
    # 2F1(1,1;2;z) = -log(1-z)/z
    for z in [0.05 * k for k in range(1, 20)]:
        ref = -math.log1p(-z) / z
        assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(ref, rel=1e-13)


def test_2f1_binomial_identity():
    # 2F1(a,b;b;z) = (1-z)^(-a)
    for a in (0.3, 1.0, 2.5, -1.2):
        for b in (0.7, 1.9):
            for z in (0.1, 0.45, 0.8, 0.97):
                ref = (1.0 - z) ** (-a)
                assert gauss_2f1(a, b, b, z) == pytest.approx(ref, rel=1e-12)


def test_2f1_terminating_polynomial():
    # a = -2 terminates: 1 - 2*(b/c) z + (b(b+1))/(c(c+1)) z^2
    b, c, z = 1.3, 2.2, 0.85
    ref = 1.0 - 2.0 * b / c * z + b * (b + 1.0) / (c * (c + 1.0)) * z * z
    assert gauss_2f1(-2.0, b, c, z) == pytest.approx(ref, rel=1e-14)


def test_2f1_domain_and_parameter_guards():
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 0.5, 1.0, -0.1)
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 0.5, -1.0, 0.3)
    assert gauss_2f1(0.7, 1.1, 1.9, 0.0) == 1.0
    with pytest.raises(ValueError):
        gauss_2f1(0.5, 0.5, 1.0, np.array([0.2, 1.0]))


def test_2f1_accepts_array_argument():
    z = np.array([[0.0, 0.3], [0.6, 0.9]])
    got = gauss_2f1(0.4, 1.3, 2.1, z)
    assert got.shape == z.shape
    for zi, gi in zip(z.ravel(), got.ravel()):
        assert gi == gauss_2f1(0.4, 1.3, 2.1, float(zi))


def test_non_finite_values_raise_arithmetic_error():
    # the CLI turns ArithmeticError into exit 2; scipy returns NaN for this
    # 2F1 and inf for this gamma
    with pytest.raises(ArithmeticError):
        gauss_2f1(1000.0, 1000.0, 1.5, 0.9)
    with pytest.raises(ArithmeticError):
        gamma_fn(200.0)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-3.0, 3.0), b=st.floats(0.1, 3.0),
       dc=st.floats(0.1, 2.0), z=st.floats(0.0, 0.98))
def test_2f1_matches_mpmath(a, b, dc, z):
    # c = b + dc keeps c away from the nonpositive integers
    c = b + dc
    ref = float(mpmath.hyp2f1(a, b, c, z))
    got = gauss_2f1(a, b, c, z)
    assert got == pytest.approx(ref, rel=5e-12, abs=1e-12)


def _mp_mu(d, alpha):
    return float(2.0 ** alpha * mpmath.gamma((d + alpha) / 2.0)
                 / mpmath.gamma((d - alpha) / 2.0))


def _mp_c(d, alpha):
    return float(2.0 ** alpha * mpmath.gamma((alpha + d) / 2.0)
                 / (mpmath.pi ** (d / 2.0) * abs(mpmath.gamma(-alpha / 2.0))))


def test_coefficients_high_precision():
    for d in (1, 2):
        for alpha in (0.4, 0.8, 1.0, 1.2, 1.6):
            if d == 1 and alpha == 1.0:
                continue
            p = FracParams(d, alpha)
            assert coeff_mu(p) == pytest.approx(_mp_mu(d, alpha), rel=1e-13)
            assert coeff_c(p) == pytest.approx(_mp_c(d, alpha), rel=1e-13)


def test_coefficient_signs():
    # the normalizing constant is always positive; the multiplier flips sign
    # with gamma((d-alpha)/2), i.e. exactly when alpha crosses d; the first
    # shifted-identity coefficient is negative, the second positive
    for d in (1, 2):
        for alpha in (0.4, 1.2, 1.6):
            p = FracParams(d, alpha)
            assert coeff_c(p) > 0.0
            if alpha < d:
                assert coeff_mu(p) > 0.0
            else:
                assert coeff_mu(p) < 0.0
            eta1, eta2 = coeff_eta(p)
            assert eta1 < 0.0
            assert eta2 > 0.0


def test_eta_high_precision():
    for d in (1, 2):
        for alpha in (0.4, 0.8, 1.2, 1.6):
            p = FracParams(d, alpha)
            g_top = mpmath.gamma((d + alpha) / 2.0)
            g_bot = mpmath.gamma((d - alpha) / 2.0 + 1.0)
            ref1 = float(-alpha * 2.0 ** (alpha - 1.0) * g_top / g_bot)
            ref2 = float(2.0 ** alpha * mpmath.gamma((d + alpha) / 2.0 + 1.0) / g_bot)
            eta1, eta2 = coeff_eta(p)
            assert eta1 == pytest.approx(ref1, rel=1e-13)
            assert eta2 == pytest.approx(ref2, rel=1e-13)
