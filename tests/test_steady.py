"""Interpolation, forward operator application, and the Poisson solve."""

import numpy as np
import pytest

from fracrbf.exterior import GmqProfile, exterior_data_correction
from fracrbf.geometry import polar_layout, uniform_interval
from fracrbf.linsys import assemble
from fracrbf.oracles import case1, case2
from fracrbf.rbf import GmqBasis, frac_lap_block, phi_block
from fracrbf.specialfun import FracParams
from fracrbf.steady import (evaluate_interpolant, forward_frac_lap_clipped, interpolate,
                            solve_poisson)


def test_interpolate_reproduces_samples():
    ps = uniform_interval(10)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.0)
    samples = np.sin(2.0 * ps.points[:, 0])
    lam = interpolate(basis, samples)
    got = evaluate_interpolant(lam, basis, ps.points)
    assert np.allclose(got, samples, atol=1e-10)


def test_interpolate_guards():
    ps = uniform_interval(6)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.0)
    bad = np.full(ps.n_total, np.nan)
    with pytest.raises(ValueError):
        interpolate(basis, bad)
    # exactly repeated centers make the interpolation matrix singular
    dup = np.zeros((3, 1))
    basis_dup = GmqBasis(dup, FracParams(1, 1.2), 1.0)
    with pytest.raises(np.linalg.LinAlgError):
        interpolate(basis_dup, np.zeros(3))


def test_forward_frac_lap_sums_center_images():
    ps = uniform_interval(7)
    basis = GmqBasis(ps.points, FracParams(1, 0.8), 1.1)
    lam = np.linspace(-1.0, 1.0, ps.n_total)
    tp = np.array([[0.05], [0.3], [-0.55]])
    images = frac_lap_block(basis, tp)
    ref = sum(lam[j] * images[:, j] for j in range(ps.n_total))
    assert np.allclose(frac_lap_block(basis, tp) @ lam, ref, rtol=1e-13)


def test_clipped_forward_matches_equation_rows():
    # at the collocation points the clipped operator must agree with the
    # assembled equation rows exactly (same quadrature, same algebra)
    ps = uniform_interval(9)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.2, K=20)
    sm = assemble(ps, basis)
    rng = np.random.default_rng(2)
    lam = rng.standard_normal(ps.n_total)
    got = forward_frac_lap_clipped(lam, basis, ps.interior)
    ref = sm.s[: ps.n_interior] @ lam
    assert np.allclose(got, ref, rtol=1e-13)


def test_solve_poisson_homogeneous_compact_case():
    # zero exterior data: the nodal solution tracks the closed-form field
    ps = uniform_interval(18)
    alpha = 1.2
    basis = GmqBasis(ps.points, FracParams(1, alpha), 1.5, K=48)
    f = lambda pts: case2(1, alpha, 2.0, pts)[1]
    lam = solve_poisson(assemble(ps, basis), f)
    nodal = evaluate_interpolant(lam, basis, ps.interior)
    exact = case2(1, alpha, 2.0, ps.interior, f_required=False)[0]
    err = np.linalg.norm(nodal - exact) / np.linalg.norm(exact)
    assert err <= 1e-4
    # interpolant evaluation off the nodes stays close too
    tp = np.linspace(-0.99, 0.99, 201)[:, None]
    got = evaluate_interpolant(lam, basis, tp)
    ref = case2(1, alpha, 2.0, tp, f_required=False)[0]
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-3


def test_solve_poisson_exterior_data_disk():
    # smooth benchmark with nonzero exterior data g = u restricted outside
    ps = polar_layout(5, 11)
    alpha = 1.0
    basis = GmqBasis(ps.points, FracParams(2, alpha), 1.5, K=48, M=96)
    g = GmqProfile(np.zeros(2), 1.0, -1.5)
    f = lambda pts: case1(2, alpha, pts)[1]
    lam = solve_poisson(assemble(ps, basis), f, g=g)
    nodal = evaluate_interpolant(lam, basis, ps.interior)
    exact = case1(2, alpha, ps.interior, f_required=False)[0]
    err = np.linalg.norm(nodal - exact) / np.linalg.norm(exact)
    assert err <= 1e-3


def test_solve_poisson_pins_boundary_rows_to_g():
    ps = polar_layout(3, 7)
    basis = GmqBasis(ps.points, FracParams(2, 1.0), 1.2, K=24, M=48)
    g = GmqProfile(np.zeros(2), 1.0, -1.5)
    sm = assemble(ps, basis)
    f = lambda pts: np.ones(pts.shape[0])
    lam = solve_poisson(sm, f, g=g)
    got_boundary = phi_block(basis, ps.boundary) @ lam
    assert np.allclose(got_boundary, g.value(ps.boundary), rtol=1e-8)


def test_solve_poisson_exterior_data_uses_the_system_rule():
    # the datum's tail on the right-hand side takes the (K, M) that the
    # assembled tail took, read from the system's basis
    ps = polar_layout(3, 7)
    basis = GmqBasis(ps.points, FracParams(2, 1.0), 1.2, K=24, M=48)
    g = GmqProfile(np.zeros(2), 1.0, -1.5)
    f = lambda pts: np.ones(pts.shape[0])
    lam = solve_poisson(assemble(ps, basis), f, g=g)

    def solve_with(rule_basis):
        # a solve consumes its system, so each one assembles its own
        rhs = np.zeros(ps.n_total)
        rhs[:ps.n_interior] = f(ps.interior)
        rhs[:ps.n_interior] += exterior_data_correction(g, ps.interior, rule_basis)
        rhs[ps.n_interior:] = g.value(ps.boundary)
        return assemble(ps, basis).solve(rhs)
    assert np.array_equal(lam, solve_with(basis))
    # the default rule gives other bits, so the check above tells the rules apart
    assert not np.array_equal(lam, solve_with(GmqBasis(ps.points, basis.params, basis.eps)))


def test_solve_poisson_returns_the_coefficients_alone():
    # field values are the caller's evaluate_interpolant, not part of the solve
    ps = uniform_interval(8)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.0, K=16)
    lam = solve_poisson(assemble(ps, basis), lambda pts: np.ones(pts.shape[0]))
    assert isinstance(lam, np.ndarray) and lam.shape == (ps.n_total,)


def test_solve_poisson_rejects_nonfinite_rhs():
    ps = uniform_interval(8)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.0, K=16)
    f = lambda pts: np.full(pts.shape[0], np.inf)
    with pytest.raises(ValueError):
        solve_poisson(assemble(ps, basis), f)

