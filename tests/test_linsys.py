"""Dense system assembly, LU solve, conditioning, and reduced operators."""

import numpy as np
import pytest
import scipy.linalg as sla

from fracrbf.exterior import tail_factors_at
from fracrbf.geometry import polar_layout, uniform_interval
from fracrbf.linsys import (_factor, assemble, condition_estimate, nodal_operator,
                            nodal_values)
from fracrbf.rbf import GmqBasis, classical_lap_block, frac_lap_block, phi_block
from fracrbf.specialfun import FracParams


def _system_1d(n=10, alpha=1.2, eps=1.0, K=32):
    ps = uniform_interval(n)
    basis = GmqBasis(ps.points, FracParams(1, alpha), eps)
    return ps, basis, assemble(ps, basis, K=K)


def test_assemble_block_structure():
    ps, basis, sm = _system_1d()
    n, n_int = ps.n_total, ps.n_interior
    assert sm.s.shape == (n, n)
    assert sm.a_phi.shape == (n, n)
    # equation rows = closed-form image + tails, boundary rows = plain phi
    top_ref = (frac_lap_block(basis, ps.interior)
               + tail_factors_at(ps.interior, basis, K=32).assemble())
    assert np.allclose(sm.s[:n_int], top_ref, atol=1e-15)
    assert np.array_equal(sm.s[n_int:], sm.a_phi[n_int:])
    assert np.allclose(sm.a_phi, phi_block(basis, ps.points), atol=1e-15)


def test_manufactured_coefficients_1d():
    ps, basis, sm = _system_1d()
    rng = np.random.default_rng(7)
    lam_star = rng.standard_normal(ps.n_total)
    lam = sm.solve(sm.s @ lam_star)
    err = np.linalg.norm(lam - lam_star) / np.linalg.norm(lam_star)
    assert err <= 1e-10


def test_manufactured_coefficients_2d():
    ps = polar_layout(3, 7)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 1.0)
    sm = assemble(ps, basis, K=32, M=48)
    rng = np.random.default_rng(7)
    lam_star = rng.standard_normal(ps.n_total)
    lam = sm.solve(sm.s @ lam_star)
    err = np.linalg.norm(lam - lam_star) / np.linalg.norm(lam_star)
    assert err <= 1e-10


def test_lu_solve_plain_matrix_and_singularity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    x = rng.standard_normal(6)
    got = sla.lu_solve(_factor(a), a @ x)
    assert np.allclose(got, x, rtol=1e-10)
    with pytest.raises(np.linalg.LinAlgError):
        _factor(np.zeros((3, 3)))


def test_nodal_values_reads_top_block():
    ps, basis, sm = _system_1d(n=8)
    lam = np.arange(1.0, 9.0)
    ref = phi_block(basis, ps.interior) @ lam
    assert np.allclose(nodal_values(sm, lam), ref, atol=1e-14)


def test_condition_estimate_tracks_true_condition():
    ps, basis, sm = _system_1d(n=9, eps=0.8)
    est = condition_estimate(sm)
    true = np.linalg.cond(sm.a_phi, 1)
    assert est == pytest.approx(true, rel=0.5)


def test_nodal_operator_reproduces_equation_rows():
    # for any interior nodal vector v, the operator must equal: extend v by
    # zero boundary values, fit coefficients, apply the equation rows
    ps, basis, sm = _system_1d(n=9)
    a = nodal_operator(sm)
    assert a.shape == (ps.n_interior, ps.n_interior)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(ps.n_interior)
    samples = np.concatenate([v, np.zeros(ps.n_total - ps.n_interior)])
    lam = np.linalg.solve(sm.a_phi, samples)
    ref = sm.s[: ps.n_interior] @ lam
    assert np.allclose(a @ v, ref, rtol=1e-8, atol=1e-12)


def test_nodal_operator_custom_rows():
    ps, basis, sm = _system_1d(n=9)
    rows = classical_lap_block(basis, ps.interior)
    a = nodal_operator(sm, rows=rows)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(ps.n_interior)
    samples = np.concatenate([v, np.zeros(2)])
    lam = np.linalg.solve(sm.a_phi, samples)
    assert np.allclose(a @ v, rows @ lam, rtol=1e-8, atol=1e-12)
