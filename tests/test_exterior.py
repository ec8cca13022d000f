"""Exterior tail integrals: factored quadrature against adaptive references."""

import numpy as np
import pytest

from fracrbf.exterior import GmqProfile, exterior_data_correction, tail_factors_at
from fracrbf.geometry import clipped_grid, polar_layout, uniform_interval
from fracrbf.checks import RadialPowerProfile
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams
from reference import tail_factors_ref, tail_matrix_ref, tail_oracle


def _oracle_profile(d, eps, beta, center):
    c = np.atleast_1d(np.asarray(center, dtype=float))
    return RadialPowerProfile(c, ((1.0, eps * eps, 1.0, beta),))


def _assembled(tf):
    """The tail matrix of `tf`, written into a fresh (rows x centers) buffer."""
    return tf.assemble(np.empty((tf.b.shape[0], tf.c.shape[1])))


def _entry(x_i, x_j, eps, p, K, M=64):
    """One tail-matrix entry: one equation point, one center."""
    basis = GmqBasis(np.atleast_1d(np.asarray(x_j, dtype=float)), p, eps, K=K, M=M)
    return _assembled(tail_factors_at(np.asarray(x_i, dtype=float), basis))[0, 0]


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


def test_tail_rows_need_one_column_per_dimension():
    basis = GmqBasis(np.zeros((1, 2)), FracParams(2, 1.0), 1.0)
    with pytest.raises(ValueError):
        tail_factors_at(np.full((2, 3), 0.1), basis)


def _assert_apply_matches_assemble(tf, mat):
    # the matrix-free product of unassembled factors agrees with the
    # assembled matrix up to the rounding of a sum of |mat| |v| terms
    v = np.random.default_rng(4).standard_normal(mat.shape[1])
    assert np.all(np.abs(tf.apply(v) - mat @ v) <= 1e-13 * (np.abs(mat) @ np.abs(v)))


def test_factored_matrix_matches_entries():
    ps = uniform_interval(8)
    p = FracParams(1, 0.8)
    basis = GmqBasis(ps.points, p, 1.3, K=16)
    tf = tail_factors_at(ps.interior, basis)
    mat = _assembled(tf)
    assert mat.shape == (ps.n_interior, ps.n_total)
    for i in (0, 3):
        for j in (0, 5, 7):
            ref = _entry(ps.interior[i], ps.points[j], 1.3, p, K=16)
            assert mat[i, j] == pytest.approx(ref, rel=1e-13)
    _assert_apply_matches_assemble(tail_factors_at(ps.interior, basis), mat)


def test_factored_matrix_matches_entries_2d():
    ps = polar_layout(3, 5)
    p = FracParams(2, 1.2)
    basis = GmqBasis(ps.points, p, 0.9, K=12, M=48)
    tf = tail_factors_at(ps.interior, basis)
    mat = _assembled(tf)
    assert mat.shape == (ps.n_interior, ps.n_total)
    for i in (0, 4):
        for j in (0, 9):
            ref = _entry(ps.interior[i], ps.points[j], 0.9, p, K=12, M=48)
            assert mat[i, j] == pytest.approx(ref, rel=1e-13)
    _assert_apply_matches_assemble(tail_factors_at(ps.interior, basis), mat)


def test_tail_factors_at_arbitrary_points():
    ps = uniform_interval(8)
    basis = GmqBasis(ps.points, FracParams(1, 0.8), 1.3, K=16)
    pts = np.array([[0.11], [-0.62]])
    mat = _assembled(tail_factors_at(pts, basis))
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
    vals = exterior_data_correction(g, ps.interior, GmqBasis(ps.points, p, 1.0, K=32, M=96))
    assert vals.shape == (ps.n_interior,)
    prof = _oracle_profile(2, 1.0, -1.5, [0.0, 0.0])
    for i in (0, 5, 12):
        ref = tail_oracle(prof, 2, p.alpha, ps.interior[i])
        assert vals[i] == pytest.approx(ref, rel=1e-8)


def test_exterior_correction_amplitude_and_points_kwarg():
    ps = uniform_interval(7)
    p = FracParams(1, 1.2)
    g1 = GmqProfile(np.zeros(1), 1.0, -1.2)
    pts = np.array([[0.2], [0.4]])
    c = exterior_data_correction(g1, pts, GmqBasis(ps.points, p, 1.0, K=24))
    assert c.shape == (2,)
    with pytest.raises(ValueError):
        exterior_data_correction(GmqProfile(np.zeros(1), 1.0, 0.7), ps.interior,
                                 GmqBasis(ps.points, p, 1.0))


def test_gmq_profile_values():
    g = GmqProfile(np.array([0.5, 0.0]), 2.0, -1.0)
    pts = np.array([[0.5, 0.0], [1.5, 0.0]])
    assert np.allclose(g.value(pts), [0.25, 0.2], atol=1e-15)
    # a flat array of 1D points is one point per entry, not one 2-value row
    g1 = GmqProfile(np.zeros(1), 1.0, -1.0)
    assert np.allclose(g1.value(np.array([0.5, 1.5])), [0.8, 1.0 / 3.25], rtol=1e-15)


_FACTOR_FIELDS = ("b", "c", "weights", "b_alt", "c_alt")


@pytest.mark.parametrize("d, alpha, ps, K, M", [
    (1, 0.8, uniform_interval(120), 48, 96),
    (1, 1.6, uniform_interval(40), 16, 96),
    (2, 1.2, clipped_grid(1.0 / 16.0), 16, 32),
    (2, 0.6, polar_layout(5, 7), 24, 48),
], ids=["interval-0.8", "interval-1.6", "embedded-1.2", "polar-0.6"])
def test_tail_factors_and_matrix_match_out_of_place_formulas_bitwise(d, alpha, ps, K, M):
    # factors and product are built in place with the operations of the
    # plain expressions, in the same order, so no bit may move
    basis = GmqBasis(ps.points, FracParams(d, alpha), 0.9, K=K, M=M)
    tf = tail_factors_at(ps.interior, basis)
    ref = tail_factors_ref(ps.interior, basis.centers, basis.eps, basis.beta, basis.params, K, M)
    assert tf.scale == ref.scale
    for name in _FACTOR_FIELDS:
        got, want = getattr(tf, name), getattr(ref, name)
        assert (got is None) == (want is None), name
        assert got is None or np.array_equal(got, want), name
    mat = tail_matrix_ref(ref)
    assert np.array_equal(_assembled(tf), mat)
    # into the leading rows of a larger buffer, as linsys.assemble does;
    # assemble consumes its factors, so this takes a fresh set
    tf = tail_factors_at(ps.interior, basis)
    out = np.full((ps.n_total, ps.n_total), np.nan)
    tf.assemble(out[:ps.n_interior])
    assert np.array_equal(out[:ps.n_interior], mat)
    assert np.all(np.isnan(out[ps.n_interior:]))
    # the product weights b in place, with the bits of the out-of-place
    # scaling, leaves c as it was and drops the weights
    assert np.array_equal(tf.b, ref.b * ref.weights)
    assert tf.b_alt is None or np.array_equal(tf.b_alt, ref.b_alt * ref.weights)
    for name in ("c", "c_alt"):
        got, want = getattr(tf, name), getattr(ref, name)
        assert got is None or np.array_equal(got, want), name
    assert tf.weights is None


def test_assembled_factors_refuse_reuse():
    # a second product would weight b twice, so it fails instead
    ps = polar_layout(3, 5)
    tf = tail_factors_at(ps.interior, GmqBasis(ps.points, FracParams(2, 1.2), 0.9, K=12, M=48))
    _assembled(tf)
    with pytest.raises(TypeError):
        tf.apply(np.ones(ps.n_total))
    with pytest.raises(TypeError):
        _assembled(tf)
