"""Basis functions and their exact operator images."""

import numpy as np
import pytest

from fracrbf import steady
from fracrbf.geometry import (Domain, clipped_grid, disk_grid, polar_layout,
                              uniform_interval)
from fracrbf.oracles import gmq_profile, gmq_shifted_profile, hypersingular_oracle
from fracrbf.rbf import (GmqBasis, classical_lap_block, frac_lap_block,
                         grad_blocks, phi_block, psi_block, _sq_dist)
from fracrbf.specialfun import FracParams, coeff_eta, coeff_mu


def _basis_1d(alpha=1.2, eps=0.9):
    centers = np.array([[-0.5], [0.0], [0.7]])
    return GmqBasis(centers, FracParams(1, alpha), eps)


def _basis_2d(alpha=0.8, eps=1.1):
    centers = np.array([[0.0, 0.0], [0.3, -0.4], [-0.6, 0.1]])
    return GmqBasis(centers, FracParams(2, alpha), eps)


def test_basis_validation():
    with pytest.raises(ValueError):
        GmqBasis(np.zeros((3, 1)), FracParams(1, 1.2), 0.0)
    b = _basis_2d()
    assert b.n == 3
    assert b.beta == pytest.approx((0.8 - 2.0) / 2.0)


def test_phi_psi_point_values():
    b = _basis_1d()
    # (eps^2 + r^2)^beta with beta = (1.2-1)/2 = 0.1 at r = 0.5
    ref = (0.81 + 0.25) ** 0.1
    assert phi_block(b, 0.5)[0, 1] == pytest.approx(ref, rel=1e-15)
    ref_psi = (0.81 + 0.25) ** (-(1.2 + 1.0) / 2.0)
    assert psi_block(b, 0.5)[0, 1] == pytest.approx(ref_psi, rel=1e-15)


def test_block_shapes_and_agreement():
    # every block column is the block of the one-center basis on that center
    b = _basis_2d()
    pts = np.array([[0.1, 0.2], [-0.3, 0.5], [0.0, 0.0], [0.4, 0.4]])
    assert phi_block(b, pts).shape == (4, 3)
    for block in (phi_block, psi_block, frac_lap_block, classical_lap_block):
        full = block(b, pts)
        for j in range(b.n):
            one = GmqBasis(b.centers[j], b.params, b.eps)
            assert np.allclose(full[:, j], block(one, pts)[:, 0], atol=1e-15)


def test_frac_lap_is_scaled_companion():
    b = _basis_1d(alpha=0.6, eps=1.3)
    x = np.array([0.2, -0.8, 0.55])
    mu = coeff_mu(b.params)
    ref = b.eps ** 0.6 * mu * psi_block(b, x)
    assert np.allclose(frac_lap_block(b, x), ref, atol=1e-15)


def test_frac_lap_against_singular_integral():
    # two independent routes to the same number: the closed-form image and
    # the subtracted singular integral of the oracle module
    for d, alpha in ((1, 1.2), (2, 1.0)):
        eps = 0.8
        center = np.zeros(d)
        b = GmqBasis(center, FracParams(d, alpha), eps)
        prof = gmq_profile(d, alpha, eps)
        for r in (0.0, 0.45, 0.9):
            x = np.zeros(d)
            x[0] = r
            got = frac_lap_block(b, x if d > 1 else r)[0, 0]
            ref = hypersingular_oracle(prof, d, alpha, x)
            assert got == pytest.approx(ref, rel=1e-9)


def test_alt_identity_against_singular_integral():
    # the shifted exponent (alpha-2-d)/2 has a two-term image in the
    # coefficients eta1, eta2
    for d, alpha in ((1, 1.2), (2, 1.0)):
        eps = 0.8
        eta1, eta2 = coeff_eta(FracParams(d, alpha))
        prof = gmq_shifted_profile(d, alpha, eps)
        for r in (0.0, 0.6):
            x = np.zeros(d)
            x[0] = r
            w = eps ** 2 + r * r
            got = (eta1 * eps ** (alpha - 2.0) * w ** (-(alpha + d) / 2.0)
                   + eta2 * eps ** alpha * w ** (-(alpha + d) / 2.0 - 1.0))
            ref = hypersingular_oracle(prof, d, alpha, x)
            assert got == pytest.approx(ref, rel=1e-9)


def _fd_lap(fun, x, h=1e-5):
    d = x.shape[0]
    acc = -2.0 * d * fun(x)
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        acc += fun(x + e) + fun(x - e)
    return acc / (h * h)


def test_classical_lap_matches_finite_differences():
    # classical_lap returns the NEGATIVE Laplacian, the sign the diffusion
    # stepper expects
    b = _basis_2d(alpha=1.6, eps=0.7)
    x = np.array([0.25, -0.15])
    got = classical_lap_block(b, x)[0]
    for j in range(b.n):
        fun = lambda y: phi_block(b, y)[0, j]
        ref = -_fd_lap(fun, x)
        assert got[j] == pytest.approx(ref, rel=1e-5)


def test_grad_matches_finite_differences():
    b = _basis_2d(alpha=1.2, eps=0.9)
    x = np.array([0.33, 0.12])
    h = 1e-6
    grads = grad_blocks(b, x)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        ref = (phi_block(b, x + e)[0] - phi_block(b, x - e)[0]) / (2.0 * h)
        for j in range(b.n):
            assert grads[k][0, j] == pytest.approx(ref[j], rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("points, centers", [
    (uniform_interval(34).points, None),
    (polar_layout(11, 11).points, None),
    (disk_grid(1.0 / 8.0).points, None),
    (clipped_grid(1.0 / 16.0, Domain("embedded", np.sqrt(2.0) / 2.0)).points, None),
    (steady.test_points_disk(), disk_grid(1.0 / 8.0).points),
], ids=["interval", "polar", "lattice", "embedded", "rectangular"])
def test_sq_dist_matches_broadcast_bitwise(points, centers):
    # the blocks' r^2 must equal the explicit difference-square-sum exactly,
    # so swapping how it is computed leaves every solver result unchanged
    centers = points if centers is None else centers
    basis = GmqBasis(centers, FracParams(points.shape[1], 0.8), 1.0)
    r2, _ = _sq_dist(basis, points)
    diff = points[:, None, :] - centers[None, :, :]
    assert np.array_equal(r2, np.sum(diff * diff, axis=2))
