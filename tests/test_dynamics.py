"""Time steppers: trapezoidal mixed diffusion, SSP-RK3 transport, and the
vortex diagnostics."""

import dataclasses
import math
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

from fracrbf import dynamics
from fracrbf.dynamics import (EvolutionConfig, QgOperators, anisotropy_ratio,
                              crank_nicolson_mixed, mixed_operators, qg_operators,
                              qg_rhs, run_qg, ssp_rk3_step)
from fracrbf.geometry import disk_grid, polar_layout
from fracrbf.harness import preset_fig_mixed
from fracrbf.linsys import _factor, assemble, nodal_operator
from fracrbf.rbf import GmqBasis, grad_blocks, phi_block
from fracrbf.specialfun import FracParams


def _gaussian(width):
    return lambda pts: np.exp(-width * np.sum(pts * pts, axis=1))


def test_config_validation():
    cfg = EvolutionConfig(dt=0.1, t_end=1.0)
    assert cfg.n_steps == 10
    # the config is the time grid alone; each model coefficient goes to its stepper
    assert [f.name for f in dataclasses.fields(cfg)] == ["dt", "t_end", "snapshots"]
    for bad in (dict(dt=0.0, t_end=1.0), dict(dt=0.1, t_end=-1.0),
                dict(dt=math.inf, t_end=0.5), dict(dt=math.nan, t_end=0.5),
                dict(dt=0.1, t_end=math.inf), dict(dt=0.1, t_end=math.nan),
                dict(dt=1e-300, t_end=1e10)):
        with pytest.raises(ValueError):
            EvolutionConfig(**bad)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.3, t_end=1.0).n_steps


@pytest.mark.parametrize("chi", [1.5, math.nan])
def test_mixed_stepper_checks_chi(chi):
    n = 3
    with pytest.raises(ValueError, match="chi"):
        crank_nicolson_mixed(np.zeros((2 * n, n)), EvolutionConfig(dt=0.1, t_end=1.0),
                             np.ones(n), chi)


@pytest.mark.parametrize("kappa", [-1.0, math.inf, math.nan])
def test_qg_stepper_checks_kappa(kappa):
    n = 3
    ops = QgOperators(np.zeros((3 * n, n)), np.zeros((2 * n, n)))
    with pytest.raises(ValueError, match="kappa"):
        run_qg(ops, EvolutionConfig(dt=0.1, t_end=1.0), np.ones(n), kappa)


@pytest.mark.parametrize("u0, message", [(np.ones(4), "length"),
                                         (np.array([1.0, np.nan, 1.0]), "finite")],
                         ids=["length", "finite"])
def test_steppers_check_the_initial_values(u0, message):
    # one value per interior node, the operator's column count, all finite
    n = 3
    cfg = EvolutionConfig(dt=0.1, t_end=1.0)
    with pytest.raises(ValueError, match=message):
        crank_nicolson_mixed(np.zeros((2 * n, n)), cfg, u0, 1.0)
    with pytest.raises(ValueError, match=message):
        run_qg(QgOperators(np.zeros((3 * n, n)), np.zeros((2 * n, n))), cfg, u0, 0.0)


def test_snapshot_steps_include_ends():
    assert EvolutionConfig(dt=0.001, t_end=0.5).snapshot_steps() == [0, 500]
    cfg = EvolutionConfig(dt=0.001, t_end=0.5, snapshots=5)
    assert cfg.snapshot_steps() == [0, 100, 200, 300, 400, 500]


@pytest.mark.parametrize("snapshots", [0, 1.5, True])
def test_config_rejects_a_snapshot_count_that_is_not_a_positive_integer(snapshots):
    with pytest.raises(ValueError, match="snapshots"):
        EvolutionConfig(dt=0.001, t_end=0.5, snapshots=snapshots)


def test_config_accepts_a_numpy_integer_snapshot_count():
    # the count follows the order rule of the tail quadrature, which takes numpy integers
    cfg = EvolutionConfig(dt=0.001, t_end=0.5, snapshots=np.int64(5))
    assert cfg.snapshots == 5
    assert cfg.snapshot_steps() == [0, 100, 200, 300, 400, 500]


@pytest.fixture(scope="module")
def disk73():
    ps = polar_layout(8, 8)
    basis = GmqBasis(ps.points, FracParams(2, 1.0), 1.0, K=32, M=64)
    return ps, basis, mixed_operators(ps, basis)


def test_mixed_diffusion_peak_regression(disk73):
    # frozen end states of the three-way local/nonlocal split; the purely
    # nonlocal run must decay slowest
    ps, _, ops = disk73
    expected = {0.0: 0.03603604436147113,
                0.5: 0.08944110490061552,
                1.0: 0.23270469350068512}
    peaks = {}
    for chi, ref in expected.items():
        cfg = EvolutionConfig(dt=0.001, t_end=0.5)
        times, fields = crank_nicolson_mixed(ops, cfg, _gaussian(4.0)(ps.interior), chi)
        assert times[-1] == pytest.approx(0.5)
        assert fields.shape == (2, ps.n_interior)
        peaks[chi] = float(np.max(np.abs(fields[-1])))
        assert peaks[chi] == pytest.approx(ref, rel=1e-9)
    assert peaks[0.0] < peaks[0.5] < peaks[1.0]


def test_mixed_diffusion_norm_decays(disk73):
    ps, _, ops = disk73
    cfg = EvolutionConfig(dt=0.02, t_end=0.2, snapshots=5)
    _, fields = crank_nicolson_mixed(ops, cfg, _gaussian(4.0)(ps.interior), 1.0)
    norms = np.linalg.norm(fields, axis=1)
    assert np.all(np.diff(norms) < 0.0)


def test_ssp_step_scalar_taylor_value():
    # one step of u' = -u from 1 reproduces the cubic Taylor polynomial of
    # e^(-dt) exactly: 1 - dt + dt^2/2 - dt^3/6
    dt = 0.1
    got = ssp_rk3_step(lambda u: -u, 1.0, dt)
    ref = 1.0 - dt + dt * dt / 2.0 - dt ** 3 / 6.0
    assert got == pytest.approx(ref, rel=1e-15)
    assert abs(got - math.exp(-dt)) <= 5e-6


def test_ssp_step_fourth_order_local_error():
    # local error vs the exact flow scales like dt^4: halving dt divides the
    # error by about 16
    def err(dt):
        return abs(ssp_rk3_step(lambda u: -u, 1.0, dt) - math.exp(-dt))
    ratio = err(0.1) / err(0.05)
    assert 14.0 < ratio < 18.0


def _no_advection(ops):
    return QgOperators(ops.local, np.zeros_like(ops.velocity))


def test_qg_rhs_zero_field_and_pure_decay(disk73):
    ps, basis, _ = disk73
    ops = qg_operators(ps, basis)
    zero = np.zeros(ps.n_interior)
    assert np.allclose(qg_rhs(zero, ops, 0.001), 0.0, atol=1e-14)

    cfg = EvolutionConfig(dt=0.01, t_end=0.2, snapshots=4)
    _, fields = run_qg(_no_advection(ops), cfg, _gaussian(4.0)(ps.interior), 0.01)
    peaks = np.max(np.abs(fields), axis=1)
    assert np.all(np.diff(peaks) < 0.0)


def test_qg_advection_vanishes_on_radial_field(disk73):
    # a radial scalar spins without transporting itself: the advective part
    # of the tendency is orders below the dissipative part
    ps, basis, _ = disk73
    ops = qg_operators(ps, basis)
    theta = _gaussian(4.0)(ps.interior)
    with_adv = qg_rhs(theta, ops, 0.001)
    without = qg_rhs(theta, _no_advection(ops), 0.001)
    gap = np.max(np.abs(with_adv - without))
    assert gap <= 1e-5
    assert gap < 0.01 * np.max(np.abs(without))


def _per_stage_rhs(ps, eps, alpha, K, M):
    """The tendency with one vector solve of S per call: theta -> psi through
    the half-Laplacian system, then the derivatives of psi."""
    n = ps.n_interior
    half = GmqBasis(ps.points, FracParams(2, 1.0), eps, K=K, M=M)
    sm = assemble(ps, half)
    gx, gy = grad_blocks(half, ps.interior)
    dx, dy = nodal_operator(ps, half, rows=(gx,)), nodal_operator(ps, half, rows=(gy,))
    sm_diss = sm if alpha == 1.0 else assemble(
        ps, GmqBasis(ps.points, FracParams(2, alpha), eps, K=K, M=M))
    diss = nodal_operator(ps, sm_diss.basis, rows=(sm_diss.s[:n],))

    s_lu = _factor(sm.s)

    def rhs(theta, kappa, advect=True):
        out = -kappa * (diss @ theta)
        if advect:
            lam = sla.lu_solve(s_lu, np.concatenate([-theta, np.zeros(ps.n_total - n)]))
            psi = phi_block(half, ps.interior) @ lam
            u1, u2 = -(dy @ psi), dx @ psi
            out = out - (u1 * (dx @ theta) + u2 * (dy @ theta))
        return out
    return rhs


@pytest.mark.parametrize("h, eps, alpha", [(1 / 8, 0.2, 1.0), (1 / 16, 0.1, 1.0),
                                           (1 / 8, 0.2, 1.5)])
def test_qg_rhs_matches_per_stage_solve(h, eps, alpha):
    # the precomputed velocity operator reproduces the per-stage stream solve
    ps = disk_grid(h)
    ops = qg_operators(ps, GmqBasis(ps.points, FracParams(2, alpha), eps, K=32, M=64))
    ref = _per_stage_rhs(ps, eps, alpha, K=32, M=64)
    pts = ps.interior
    thetas = (np.exp(-4.0 * pts[:, 0] ** 2 - 64.0 * pts[:, 1] ** 2),
              np.random.default_rng(3).standard_normal(ps.n_interior))
    for theta in thetas:
        for kappa, advect in ((0.001, True), (1.0, False)):
            want = ref(theta, kappa, advect)
            got = qg_rhs(theta, ops if advect else _no_advection(ops), kappa)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_qg_operators_keep_no_system(alpha, monkeypatch):
    # only the two stage operators outlive the build; each system is freed
    # before the next one is assembled
    systems, live_at_assembly = [], []
    assemble = dynamics.assemble

    def tracked(*args, **kwargs):
        live_at_assembly.append(sum(ref() is not None for ref in systems))
        sm = assemble(*args, **kwargs)
        systems.append(weakref.ref(sm))
        return sm
    monkeypatch.setattr(dynamics, "assemble", tracked)
    ps = polar_layout(4, 8)
    ops = qg_operators(ps, GmqBasis(ps.points, FracParams(2, alpha), 0.5, K=16, M=32))
    assert live_at_assembly == ([0] if alpha == 1.0 else [0, 0])
    assert all(ref() is None for ref in systems)
    n = ps.n_interior
    assert [f.name for f in dataclasses.fields(ops)] == ["local", "velocity"]
    assert vars(ops).keys() == {"local", "velocity"}
    assert ops.local.shape == (3 * n, n) and ops.velocity.shape == (2 * n, n)


def test_mixed_operators_keep_no_system(monkeypatch):
    systems = []
    assemble = dynamics.assemble

    def tracked(*args, **kwargs):
        sm = assemble(*args, **kwargs)
        systems.append(weakref.ref(sm))
        return sm
    monkeypatch.setattr(dynamics, "assemble", tracked)
    ps = polar_layout(4, 8)
    ops = mixed_operators(ps, GmqBasis(ps.points, FracParams(2, 1.0), 0.5, K=16, M=32))
    assert len(systems) == 1 and systems[0]() is None
    assert ops.shape == (2 * ps.n_interior, ps.n_interior)


def test_fig_mixed_solves_one_coefficient_map(monkeypatch):
    # the three chi runs share one pair of nodal operators
    calls = []
    nodal_operator = dynamics.nodal_operator

    def counted(*args, **kwargs):
        calls.append(1)
        return nodal_operator(*args, **kwargs)
    monkeypatch.setattr(dynamics, "nodal_operator", counted)
    rep = preset_fig_mixed()
    assert len(calls) == 1
    assert len(rep.rows) == 3


def test_qg_blowup_guard():
    ps = polar_layout(4, 8)
    basis = GmqBasis(ps.points, FracParams(2, 1.0), 0.5, K=16, M=32)
    cfg = EvolutionConfig(dt=2.0, t_end=40.0)
    with pytest.raises(FloatingPointError):
        run_qg(qg_operators(ps, basis), cfg, _gaussian(4.0)(ps.interior), 0.001)


def test_qg_requires_disk_basis():
    from fracrbf.geometry import uniform_interval
    ps = uniform_interval(8)
    basis = GmqBasis(ps.points, FracParams(1, 1.2), 1.0)
    with pytest.raises(ValueError):
        qg_operators(ps, basis)


def test_anisotropy_ratio_synthetic():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
    assert anisotropy_ratio(pts, np.ones(4)) == pytest.approx(4.0, rel=1e-12)
    # rotating the whole configuration changes nothing
    c, s = np.cos(0.7), np.sin(0.7)
    rot = pts @ np.array([[c, -s], [s, c]]).T
    assert anisotropy_ratio(rot, np.ones(4)) == pytest.approx(4.0, rel=1e-9)
    # isotropic square of points gives 1
    sq = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert anisotropy_ratio(sq, np.ones(4)) == pytest.approx(1.0, rel=1e-12)


def test_anisotropy_ratio_weighting():
    # weights enter squared: emphasizing the wide axis raises the ratio
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    vals = np.array([2.0, 2.0, 1.0, 1.0])
    assert anisotropy_ratio(pts, vals) == pytest.approx(4.0, rel=1e-12)


def test_anisotropy_ratio_needs_planar_points():
    # a third column used to be dropped without a word
    pts = [[0.1, 0.2, 9.0], [0.3, -0.1, 9.0], [-0.2, 0.1, 1.0]]
    with pytest.raises(ValueError):
        anisotropy_ratio(pts, [1.0, 2.0, 3.0])
