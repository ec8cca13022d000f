"""Reference-value machinery: profile algebra, the singular-integral oracle,
and the closed-form benchmark solutions checked against each other."""

import math

import numpy as np
import pytest

from fracrbf.checks import RadialPowerProfile, gmq_profile, hypersingular_oracle
from fracrbf.geometry import uniform_interval
from fracrbf.harness import measurement_points
from fracrbf.oracles import case1, case2, case2_scaled
from reference import inverse_power_profile, scaled_rhs_ref, tail_oracle, truncated_profile


def _fd_laplacian(profile, x, h=1e-4):
    d = profile.d
    x = np.asarray(x, dtype=float)
    acc = -2.0 * d * float(profile.value(x)[0])
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        acc += float(profile.value(x + e)[0]) + float(profile.value(x - e)[0])
    return acc / (h * h)


def test_profile_value_and_support():
    prof = truncated_profile(1, 2.0)
    xs = np.array([0.0, 0.5, 0.99, 1.0, 1.7])
    vals = prof.value(xs)
    ref = np.where(xs < 1.0, (1.0 - xs ** 2) ** 2, 0.0)
    assert np.allclose(vals, ref, atol=1e-15)
    assert prof.support_radius() == pytest.approx(1.0)
    assert inverse_power_profile(2, 3.0).support_radius() is None


def test_profile_laplacian_matches_finite_differences():
    cases = [
        (gmq_profile(1, 1.2, 0.7), np.array([0.31])),
        (RadialPowerProfile(np.array([0.2, -0.1]), ((1.0, 1.3 * 1.3, 1.0, (0.8 - 2.0) / 2.0),)),
         np.array([0.4, 0.25])),
        (inverse_power_profile(2, 3.0), np.array([0.3, 0.6])),
        (truncated_profile(2, 2.5), np.array([0.2, 0.3])),
    ]
    for prof, x in cases:
        got = float(prof.laplacian().value(x)[0])
        ref = _fd_laplacian(prof, x)
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-8)


def test_oracle_matches_smooth_closed_form():
    # u = (1+|x|^2)^(-(d+1)/2) has a hypergeometric image; the oracle
    # integrates the defining singular integral with no shared code
    for d, alpha in ((1, 1.2), (2, 0.8)):
        prof = inverse_power_profile(d, d + 1.0)
        for r in (0.0, 0.37, 0.8):
            x = np.full(d, r / math.sqrt(d))
            _, f = case1(d, alpha, x)
            got = hypersingular_oracle(prof, d, alpha, x)
            assert got == pytest.approx(f, rel=1e-8)


def test_oracle_matches_compact_closed_form():
    for d, alpha, p in ((1, 0.8, 2.0), (2, 1.2, 3.0)):
        prof = truncated_profile(d, p)
        for r in (0.0, 0.41):
            x = np.full(d, r / math.sqrt(d))
            _, f = case2(d, alpha, p, x)
            got = hypersingular_oracle(prof, d, alpha, x)
            assert got == pytest.approx(f, rel=1e-7)


def test_oracle_rejects_kink_points():
    prof = truncated_profile(1, 1.0)
    with pytest.raises(ValueError):
        hypersingular_oracle(prof, 1, 0.8, np.array([1.0]))


def test_case1_poisson_kernel_special_case():
    # at alpha = 1 the image collapses to (d - |x|^2)(1+|x|^2)^(-(d+3)/2)
    d = 2
    for r2 in (0.0, 0.09, 0.49):
        x = np.array([math.sqrt(r2), 0.0])
        _, f = case1(d, 1.0, x)
        ref = (d - r2) * (1.0 + r2) ** (-(d + 3.0) / 2.0)
        assert f == pytest.approx(ref, rel=1e-12)


def test_case2_hat_profile_values():
    u, f = case2(1, 1.2, 1.0, np.array([0.0, 0.3, 0.9]))
    assert np.allclose(u, [1.0, 0.91, 0.19], atol=1e-15)
    assert np.all(np.isfinite(f))
    u_only, none_f = case2(1, 1.2, 1.0, np.array([0.5, 1.5]), f_required=False)
    assert none_f is None
    assert u_only[1] == 0.0


def test_cases_return_arrays_on_one_point():
    for u, f in (case1(1, 1.2, 0.3), case2(1, 1.2, 1.0, 0.3),
                 case2(2, 1.2, 1.0, np.array([0.1, 0.2])),
                 case2_scaled(1, 1.2, 1.0, 2.0, np.array([0.1]))):
        assert isinstance(u, np.ndarray) and isinstance(f, np.ndarray)
        assert u.shape == f.shape == (1,)


def test_case2_rejects_boundary_forcing():
    with pytest.raises(ValueError):
        case2(1, 1.2, 1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        case2(1, 1.2, -1.0, np.array([0.0]))


def test_case2_scaled_consistency():
    # f_scaled(x) = scale^alpha f(scale x), u_scaled(x) = u(scale x)
    d, alpha, p, scale = 1, 1.2, 1.0, 2.0
    xs = np.array([0.05, 0.21, 0.44])
    u_s, f_s = case2_scaled(d, alpha, p, scale, xs)
    u_r, f_r = case2(d, alpha, p, scale * xs)
    assert np.allclose(u_s, u_r, atol=1e-15)
    assert np.allclose(f_s, scale ** alpha * f_r, rtol=1e-14)
    # outside the support f has a 1D quadrature route only
    with pytest.raises(ValueError):
        case2_scaled(2, alpha, p, scale, np.array([0.6, 0.0]))


def test_case2_scaled_oracle_route():
    d, alpha, p, scale = 1, 0.8, 2.0, 2.0
    prof = truncated_profile(d, p, scale=scale)
    x = np.array([0.17])
    _, f = case2_scaled(d, alpha, p, scale, x)
    got = hypersingular_oracle(prof, d, alpha, x)
    assert got == pytest.approx(f, rel=1e-7)


@pytest.mark.parametrize("alpha, p", [(1.2, 1.2), (0.8, 2.0), (1.6, 1.6), (0.4, 0.4)])
def test_case2_scaled_outside_support_matches_oracle(alpha, p):
    # the Gauss rule after y = sin(t)/scale against the direct integral
    prof = truncated_profile(1, p, scale=2.0)
    xs = np.array([0.55, 0.7, 0.95])
    _, f = case2_scaled(1, alpha, p, 2.0, xs)
    for x, fx in zip(xs, f):
        assert fx == pytest.approx(hypersingular_oracle(prof, 1, alpha, np.array([x])), rel=1e-10)


@pytest.mark.parametrize("n", [256, 2048])
def test_case2_scaled_is_table4s_forcing_bit_for_bit(n):
    # table4's nodes and measurement grid, against the composition the
    # harness used before case2_scaled covered the exterior of the support
    ps = uniform_interval(n + 2)
    for x in (ps.interior, measurement_points(ps, window=0.5)):
        for got, ref in zip(case2_scaled(1, 1.2, 1.2, 2.0, x), scaled_rhs_ref(1.2, x)):
            assert np.array_equal(got, ref)


def test_tail_oracle_compact_support_shortcut():
    # support inside the unit ball leaves no exterior mass
    prof = truncated_profile(2, 2.0, scale=2.0)
    assert tail_oracle(prof, 2, 1.2, np.array([0.1, 0.0])) == 0.0


def test_tail_oracle_needs_interior_point():
    prof = inverse_power_profile(1, 3.0)
    with pytest.raises(ValueError):
        tail_oracle(prof, 1, 0.8, np.array([1.0]))


def test_laplacian_iterates_power_law():
    # Laplacian of |y|^(2b) in d dims is 2b(2b+d-2)|y|^(2b-2); the profile
    # encodes it as (0 + 1*|y|^2)^b
    d, b = 2, 1.7
    prof = RadialPowerProfile(np.zeros(d), ((1.0, 0.0, 1.0, b),))
    lap = prof.laplacian()
    y = np.array([0.4, 0.7])
    r2 = float(np.dot(y, y))
    ref = 2.0 * b * (2.0 * b + d - 2.0) * r2 ** (b - 1.0)
    assert float(lap.value(y)[0]) == pytest.approx(ref, rel=1e-13)
