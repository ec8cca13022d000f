"""Interpolation, forward operator application, and the Poisson solve."""

import numpy as np
import pytest

from fracrbf.exterior import GmqProfile
from fracrbf.geometry import polar_layout, uniform_interval
from fracrbf.linsys import assemble
from fracrbf.oracles import case1, case2
from fracrbf.rbf import GmqBasis, frac_lap_block, phi_block
from fracrbf.specialfun import FracParams
from fracrbf.steady import (evaluate_interpolant, forward_frac_lap,
                            forward_frac_lap_clipped, interpolate,
                            solve_poisson, test_points_disk)


def test_interpolate_reproduces_samples():
    ps = uniform_interval(10)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.0)
    samples = np.sin(2.0 * ps.points[:, 0])
    lam = interpolate(ps, basis, samples)
    got = evaluate_interpolant(lam, basis, ps.points)
    assert np.allclose(got, samples, atol=1e-10)


def test_interpolate_guards():
    ps = uniform_interval(6)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.0)
    bad = np.full(ps.n_total, np.nan)
    with pytest.raises(ValueError):
        interpolate(ps, basis, bad)
    # exactly repeated centers make the interpolation matrix singular
    dup = np.zeros((3, 1))
    basis_dup = GmqBasis(dup, FracParams(1, 1.2), 1.0)
    with pytest.raises(np.linalg.LinAlgError):
        interpolate(ps, basis_dup, np.zeros(ps.n_total)[:3])


def test_forward_frac_lap_sums_center_images():
    ps = uniform_interval(7)
    basis = GmqBasis(ps.points, FracParams(1, 0.8), 1.1)
    lam = np.linspace(-1.0, 1.0, ps.n_total)
    tp = np.array([[0.05], [0.3], [-0.55]])
    images = frac_lap_block(basis, tp)
    ref = sum(lam[j] * images[:, j] for j in range(ps.n_total))
    assert np.allclose(forward_frac_lap(lam, basis, tp), ref, rtol=1e-13)


def test_clipped_forward_matches_equation_rows():
    # at the collocation points the clipped operator must agree with the
    # assembled equation rows exactly (same quadrature, same algebra)
    ps = uniform_interval(9)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.2)
    sm = assemble(ps, basis, K=20)
    rng = np.random.default_rng(2)
    lam = rng.standard_normal(ps.n_total)
    got = forward_frac_lap_clipped(lam, basis, ps.interior, K=20)
    ref = sm.s[: ps.n_interior] @ lam
    assert np.allclose(got, ref, rtol=1e-13)


def test_solve_poisson_homogeneous_compact_case():
    # zero exterior data: the nodal solution tracks the closed-form field
    ps = uniform_interval(18)
    alpha = 1.2
    basis = GmqBasis(ps.points, FracParams(1, alpha), 1.5)
    f = lambda pts: case2(1, alpha, 2.0, pts)[1]
    lam, nodal = solve_poisson(ps, basis, f, K=48)
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
    basis = GmqBasis(ps.points, FracParams(2, alpha), 1.5)
    g = GmqProfile(np.zeros(2), 1.0, -1.5)
    f = lambda pts: case1(2, alpha, pts)[1]
    lam, nodal = solve_poisson(ps, basis, f, g=g, K=48, M=96)
    exact = case1(2, alpha, ps.interior, f_required=False)[0]
    err = np.linalg.norm(nodal - exact) / np.linalg.norm(exact)
    assert err <= 1e-3


def test_solve_poisson_pins_boundary_rows_to_g():
    ps = polar_layout(3, 7)
    basis = GmqBasis(ps.points, FracParams(2, 1.0), 1.2)
    g = GmqProfile(np.zeros(2), 1.0, -1.5)
    sm = assemble(ps, basis, K=24, M=48)
    f = lambda pts: np.ones(pts.shape[0])
    lam, _ = solve_poisson(ps, basis, f, g=g, K=24, M=48, system=sm)
    got_boundary = phi_block(basis, ps.boundary) @ lam
    assert np.allclose(got_boundary, g.value(ps.boundary), rtol=1e-8)


def test_solve_poisson_reuses_system():
    ps = uniform_interval(8)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.0)
    sm = assemble(ps, basis, K=16)
    f = lambda pts: np.cos(pts[:, 0])
    lam1, _ = solve_poisson(ps, basis, f, K=16)
    lam2, _ = solve_poisson(ps, basis, f, K=16, system=sm)
    assert np.array_equal(lam1, lam2)


def test_solve_poisson_rejects_nonfinite_rhs():
    ps = uniform_interval(8)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.0)
    f = lambda pts: np.full(pts.shape[0], np.inf)
    with pytest.raises(ValueError):
        solve_poisson(ps, basis, f, K=16)


def test_measurement_grids():
    tp = test_points_disk(n_radii=5, n_angles=8, r_max=0.9)
    assert tp.shape == (41, 2)
    r = np.linalg.norm(tp, axis=1)
    assert r[0] == 0.0
    assert np.max(r) == pytest.approx(0.9)
