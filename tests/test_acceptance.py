"""Acceptance gate: the eleven shipped guarantees, one test and one printed
PASS/FAIL line apiece.

Each test exercises the guarantee at its stated tolerance and prints
"[PASS] criterion NN ..." (or FAIL) so a plain pytest -v -s run reads as a
checklist. Reference error magnitudes quoted in criteria 3 and 4 are the
published accuracy levels the convergence study must land within one decade
of."""

import math

import numpy as np
import pytest

from fracrbf.dynamics import (EvolutionConfig, anisotropy_ratio, crank_nicolson_mixed,
                              mixed_operators, qg_operators, run_qg, ssp_rk3_step)
from fracrbf.geometry import disk_grid, polar_layout
from fracrbf.checks import CHECKS
from fracrbf.harness import preset_table2, preset_table3, preset_table4, preset_table5
from fracrbf.linsys import assemble, nodal_operator
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams

TABLE_ALPHAS = (0.4, 0.8, 1.2, 1.6)


def _verdict(num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: {detail}"
    print(line)
    assert ok, line


def _check(name):
    """(worst deviation, tolerance) of the named `fracrbf verify` check."""
    (check, tol), = [(c, t) for n, c, t in CHECKS if n == name]
    return check(), tol


def test_criterion_01_closed_form_image_matches_singular_integral():
    worst, tol = _check("closed-form-identity")
    _verdict(1, "closed-form operator image (two-route)", worst <= tol,
             f"worst relative gap {worst:.3e} (tolerance {tol:.0e})")


def test_criterion_02_shifted_exponent_image_matches_singular_integral():
    worst, tol = _check("shifted-exponent-identity")
    _verdict(2, "shifted-exponent operator image (two-route)", worst <= tol,
             f"worst relative gap {worst:.3e} (tolerance {tol:.0e})")


def test_criterion_03_interval_hat_profile_error_levels():
    reference = dict(zip(TABLE_ALPHAS, (2.06e-06, 1.65e-06, 8.18e-07, 4.06e-07)))
    ok = True
    details = []
    for alpha, ref in reference.items():
        ehats = [r.ehat for r in preset_table2(alpha=alpha).rows]
        mono = all(a > b for a, b in zip(ehats, ehats[1:]))
        ratio = ehats[-1] / ref
        ok = ok and mono and 0.1 <= ratio <= 10.0
        details.append(f"a={alpha}: Ehat(16)={ehats[-1]:.2e} ({ratio:.2f}x ref,"
                       f" monotone={mono})")
    _verdict(3, "interval hat-profile residual levels", ok, "; ".join(details))


def test_criterion_04_interval_squared_hat_error_levels():
    reference = dict(zip(TABLE_ALPHAS, (8.74e-06, 7.35e-06, 3.96e-06, 2.38e-06)))
    ok = True
    details = []
    for alpha, ref in reference.items():
        ehats = [r.ehat for r in preset_table3(alpha=alpha).rows]
        ratio = ehats[-1] / ref
        ok = ok and 0.1 <= ratio <= 10.0
        details.append(f"a={alpha}: Ehat(16)={ehats[-1]:.2e} ({ratio:.2f}x ref)")
    _verdict(4, "interval squared-hat residual levels", ok, "; ".join(details))


def test_criterion_05_interior_kink_half_order_rates():
    ok = True
    details = []
    for alpha in TABLE_ALPHAS:
        rows = preset_table4(alpha=alpha).rows
        rate = (math.log(rows[0].ehat / rows[-1].ehat)
                / math.log(rows[-1].n / rows[0].n))
        ok = ok and abs(rate - 0.5) <= 0.15
        details.append(f"a={alpha}: rate={rate:.3f}")
    _verdict(5, "interior-kink half-order convergence", ok,
             "; ".join(details) + " (target 0.5 +- 0.15)")


def test_criterion_06_disk_smooth_convergence_and_conditioning():
    rows = preset_table5().rows
    es = [r.e for r in rows]
    mono = all(a > b for a, b in zip(es, es[1:]))
    final_ok = es[-1] <= 1e-5
    cond_ok = rows[-1].cond > 1e12
    ok = mono and final_ok and cond_ok
    _verdict(6, "disk smooth-problem convergence", ok,
             f"E monotone={mono}, E(133)={es[-1]:.2e} (<=1e-5), "
             f"cond(133)={rows[-1].cond:.2e} (>1e12)")


def test_criterion_07_manufactured_coefficients_recovered():
    worst, tol = _check("manufactured-coefficients")
    _verdict(7, "manufactured coefficients recovered", worst <= tol,
             f"worst relative error {worst:.3e} (tolerance {tol:.0e})")


def test_criterion_08_quadrature_and_hypergeometric_exactness():
    worst_q, tol_q = _check("gauss-exactness")
    worst_h, tol_h = _check("hypergeometric-closed-forms")
    ok = worst_q <= tol_q and worst_h <= tol_h
    _verdict(8, "quadrature and hypergeometric exactness", ok,
             f"monomial gap {worst_q:.2e} (<={tol_q:.0e}), "
             f"closed-form gap {worst_h:.2e} (<={tol_h:.0e})")


def test_criterion_09_time_stepper_orders():
    # trapezoidal self-convergence on the mixed-diffusion disk problem
    ps = polar_layout(8, 8)
    basis = GmqBasis(ps.points, FracParams(2, 1.0), 1.0, K=32, M=64)
    ops = mixed_operators(ps, basis)
    u0 = np.exp(-4.0 * np.sum(ps.interior * ps.interior, axis=1))
    finals = []
    for dt in (0.004, 0.002, 0.001):
        cfg = EvolutionConfig(dt=dt, t_end=0.1)
        _, fields = crank_nicolson_mixed(ops, cfg, u0, 0.5)
        finals.append(fields[-1])
    cn_order = float(np.log2(np.linalg.norm(finals[0] - finals[1])
                             / np.linalg.norm(finals[1] - finals[2])))

    # explicit three-stage stepping of a linear fractional decay problem
    ps2 = polar_layout(5, 5)
    basis2 = GmqBasis(ps2.points, FracParams(2, 1.2), 1.0, K=32, M=64)
    s2 = assemble(ps2, basis2).s
    a = s2[:ps2.n_interior] @ nodal_operator(ps2, basis2)
    op = lambda u: -(a @ u)
    v0 = np.exp(-2.0 * np.sum(ps2.interior * ps2.interior, axis=1))
    outs = []
    for dt in (0.01, 0.005, 0.0025):
        u = v0.copy()
        for _ in range(int(round(0.2 / dt))):
            u = ssp_rk3_step(op, u, dt)
        outs.append(u)
    rk_order = float(np.log2(np.linalg.norm(outs[0] - outs[1])
                             / np.linalg.norm(outs[1] - outs[2])))
    ok = abs(cn_order - 2.0) <= 0.2 and abs(rk_order - 3.0) <= 0.3
    _verdict(9, "time-stepper self-convergence orders", ok,
             f"trapezoidal {cn_order:.3f} (2.0 +- 0.2), "
             f"three-stage {rk_order:.3f} (3.0 +- 0.3)")


def test_criterion_10_vortex_isotropization_and_stability():
    ps = disk_grid(1.0 / 16.0)
    basis = GmqBasis(ps.points, FracParams(2, 1.0), 0.1, K=32, M=64)
    cfg = EvolutionConfig(dt=0.01, t_end=2.0, snapshots=8)
    pts = ps.interior
    theta0 = np.exp(-4.0 * pts[:, 0] ** 2 - 64.0 * pts[:, 1] ** 2)
    times, fields = run_qg(qg_operators(ps, basis), cfg, theta0, 0.001)
    ratios = [anisotropy_ratio(ps.interior, f) for f in fields]
    peaks = [float(np.max(np.abs(f))) for f in fields]
    toward_one = ratios[-1] < ratios[0] and min(ratios) >= 1.0
    bounded = all(p <= 1.05 * peaks[0] for p in peaks)
    ok = toward_one and bounded
    _verdict(10, "vortex isotropization under transport", ok,
             f"anisotropy {ratios[0]:.2f} -> {ratios[-1]:.2f} (toward 1), "
             f"max peak ratio {max(peaks) / peaks[0]:.4f} (<= 1.05)")


def test_criterion_11_preset_rerun_bitwise_identical(tmp_path):
    a = preset_table2().write(tmp_path / "a").read_bytes()
    b = preset_table2().write(tmp_path / "b").read_bytes()
    _verdict(11, "benchmark rerun is bit-identical", a == b,
             f"results.csv {len(a)} bytes, second run matches={a == b}")
