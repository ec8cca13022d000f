"""Exterior tail integrals: factored quadrature against adaptive references."""

import numpy as np
import pytest

from fracrbf.exterior import GmqProfile, exterior_data_correction, tail_factors_at
from fracrbf.geometry import polar_layout, uniform_interval
from fracrbf.oracles import RadialPowerProfile, tail_oracle
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams


def _oracle_profile(d, eps, beta, center):
    c = np.atleast_1d(np.asarray(center, dtype=float))
    return RadialPowerProfile(c, ((1.0, eps * eps, 1.0, beta),))


def _entry(x_i, x_j, eps, p, K, M=64):
    """One tail-matrix entry: one equation point, one center."""
    basis = GmqBasis(np.atleast_1d(np.asarray(x_j, dtype=float)), p, eps)
    return tail_factors_at(np.asarray(x_i, dtype=float), basis, K=K, M=M).assemble()[0, 0]


def test_tail_entry_1d_against_adaptive_quadrature():
    p = FracParams(1, 1.2)
    eps = 0.9
    beta = (p.alpha - 1.0) / 2.0
    for x_i, x_j in ((0.0, 0.0), (0.4, -0.3), (-0.85, 0.6)):
        got = _entry(x_i, x_j, eps, p, K=24)
        ref = tail_oracle(_oracle_profile(1, eps, beta, [x_j]), 1, p.alpha,
                          np.array([x_i]))
        assert got == pytest.approx(ref, rel=1e-9)


def test_tail_entry_2d_against_adaptive_quadrature():
    p = FracParams(2, 1.0)
    eps = 1.1
    beta = (p.alpha - 2.0) / 2.0
    for x_i, x_j in (((0.0, 0.0), (0.0, 0.0)),
                     ((0.3, -0.2), (-0.4, 0.1)),
                     ((0.7, 0.5), (0.2, 0.6))):
        got = _entry(x_i, x_j, eps, p, K=24, M=128)
        ref = tail_oracle(_oracle_profile(2, eps, beta, x_j), 2, p.alpha,
                          np.array(x_i))
        assert got == pytest.approx(ref, rel=1e-8)


def test_tail_entries_need_interior_points():
    with pytest.raises(ValueError):
        _entry(1.0, 0.0, 1.0, FracParams(1, 1.2), K=10)
    with pytest.raises(ValueError):
        _entry((1.0, 0.0), (0.0, 0.0), 1.0, FracParams(2, 1.0), K=10)


def test_factored_matrix_matches_entries():
    ps = uniform_interval(8)
    p = FracParams(1, 0.8)
    basis = GmqBasis(ps.points, p, 1.3)
    mat = tail_factors_at(ps.interior, basis, K=16).assemble()
    assert mat.shape == (ps.n_interior, ps.n_total)
    for i in (0, 3):
        for j in (0, 5, 7):
            ref = _entry(ps.interior[i], ps.points[j], 1.3, p, K=16)
            assert mat[i, j] == pytest.approx(ref, rel=1e-13)


def test_factored_matrix_matches_entries_2d():
    ps = polar_layout(3, 5)
    p = FracParams(2, 1.2)
    basis = GmqBasis(ps.points, p, 0.9)
    mat = tail_factors_at(ps.interior, basis, K=12, M=48).assemble()
    assert mat.shape == (ps.n_interior, ps.n_total)
    for i in (0, 4):
        for j in (0, 9):
            ref = _entry(ps.interior[i], ps.points[j], 0.9, p, K=12, M=48)
            assert mat[i, j] == pytest.approx(ref, rel=1e-13)


def test_tail_factors_at_arbitrary_points():
    ps = uniform_interval(8)
    basis = GmqBasis(ps.points, FracParams(1, 0.8), 1.3)
    pts = np.array([[0.11], [-0.62]])
    mat = tail_factors_at(pts, basis, K=16).assemble()
    for i, x in enumerate(pts[:, 0]):
        for j in (1, 6):
            ref = _entry(x, ps.points[j], 1.3, basis.params, K=16)
            assert mat[i, j] == pytest.approx(ref, rel=1e-13)
    with pytest.raises(ValueError):
        tail_factors_at(np.array([[1.2]]), basis)


def test_exterior_correction_against_adaptive_quadrature():
    ps = polar_layout(3, 7)
    p = FracParams(2, 1.0)
    g = GmqProfile(np.zeros(2), 1.0, -1.5)
    vals = exterior_data_correction(g, ps, p, K=32, M=96)
    assert vals.shape == (ps.n_interior,)
    prof = _oracle_profile(2, 1.0, -1.5, [0.0, 0.0])
    for i in (0, 5, 12):
        ref = tail_oracle(prof, 2, p.alpha, ps.interior[i])
        assert vals[i] == pytest.approx(ref, rel=1e-8)


def test_exterior_correction_amplitude_and_points_kwarg():
    ps = uniform_interval(7)
    p = FracParams(1, 1.2)
    g1 = GmqProfile(np.zeros(1), 1.0, -1.2)
    g3 = GmqProfile(np.zeros(1), 1.0, -1.2, amplitude=3.0)
    a = exterior_data_correction(g1, ps, p, K=24)
    b = exterior_data_correction(g3, ps, p, K=24)
    assert np.allclose(b, 3.0 * a, rtol=1e-14)
    pts = np.array([[0.2], [0.4]])
    c = exterior_data_correction(g1, ps, p, K=24, points=pts)
    assert c.shape == (2,)
    with pytest.raises(ValueError):
        exterior_data_correction(GmqProfile(np.zeros(1), 1.0, 0.7), ps, p)


def test_gmq_profile_values():
    g = GmqProfile(np.array([0.5, 0.0]), 2.0, -1.0, amplitude=4.0)
    pts = np.array([[0.5, 0.0], [1.5, 0.0]])
    assert np.allclose(g.value(pts), [1.0, 0.8], atol=1e-15)
