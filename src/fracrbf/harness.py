"""Benchmark harness: error metrics, rate tables, timed preset runs that
reproduce the published convergence experiments, CSV and plot emission.

Output layout per run directory: results.csv holds the numbers that must
be bit-stable across reruns (N, E, rate, Ehat, rate, cond); wall-clock
goes to timings.csv; run_meta.txt records the configuration, timestamp
and git revision; plot.py is a self-contained viewer for the data files.
"""

import csv
import subprocess
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from fracrbf.dynamics import (EvolutionConfig, anisotropy_ratio, crank_nicolson_mixed,
                              run_qg, write_field, write_snapshots)
from fracrbf.geometry import Domain, clipped_grid, disk_grid, polar_layout, uniform_interval
from fracrbf.linsys import assemble, condition_estimate
from fracrbf.oracles import case1, case2, case2_scaled
from fracrbf.quadrature import gauss_legendre_01
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams, coeff_c, gamma_fn
from fracrbf.steady import (evaluate_interpolant, forward_frac_lap_clipped,
                            solve_poisson, test_points_disk)

__all__ = [
    "rms_error",
    "convergence_rate",
    "RunRow",
    "RunReport",
    "preset_table2",
    "preset_table3",
    "preset_table4",
    "preset_table5",
    "preset_table6",
    "preset_fig_disk",
    "preset_fig_square",
    "preset_fig_mixed",
    "preset_fig_qg",
    "PRESETS",
]


def rms_error(exact, approx):
    """Relative root-mean-square error ||exact-approx|| / ||exact||."""
    exact = np.asarray(exact, dtype=float).reshape(-1)
    approx = np.asarray(approx, dtype=float).reshape(-1)
    if exact.shape != approx.shape:
        raise ValueError("exact and approx must have equal length")
    denom = float(np.linalg.norm(exact))
    if denom == 0.0:
        raise ValueError("relative error undefined: exact values are all zero")
    return float(np.linalg.norm(exact - approx)) / denom


def convergence_rate(e_prev, e_cur, n_prev, n_cur, dim=1):
    """log(E_prev/E_cur) / log(N_cur/N_prev), with the N ratio reduced to a
    per-axis resolution ratio (N^(1/dim)) for the 2D scattered-N presets.
    None when the point counts coincide (rows then vary something else)."""
    if min(e_prev, e_cur) <= 0.0 or n_prev == n_cur:
        return None
    return float(np.log(e_prev / e_cur) / (np.log(n_cur / n_prev) / dim))


@dataclass
class RunRow:
    n: int
    e: float | None = None
    rate_e: float | None = None
    ehat: float | None = None
    rate_ehat: float | None = None
    cond: float | None = None
    seconds: float = 0.0


@dataclass
class RunReport:
    label: str
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, row, dim=1):
        """Append a row, deriving rates from the previous one."""
        if self.rows:
            prev = self.rows[-1]
            if row.e is not None and prev.e is not None:
                row.rate_e = convergence_rate(prev.e, row.e, prev.n, row.n, dim)
            if row.ehat is not None and prev.ehat is not None:
                row.rate_ehat = convergence_rate(prev.ehat, row.ehat, prev.n, row.n, dim)
        self.rows.append(row)

    def write(self, out_dir):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "results.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["N", "E", "rate", "Ehat", "rate", "cond"])
            for r in self.rows:
                w.writerow([r.n] + [_cell(v) for v in
                                    (r.e, r.rate_e, r.ehat, r.rate_ehat, r.cond)])
        with open(out / "timings.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["N", "seconds"])
            for r in self.rows:
                w.writerow([r.n, f"{r.seconds:.3f}"])
        with open(out / "run_meta.txt", "w") as fh:
            fh.write(f"label={self.label}\n")
            for k in sorted(self.meta):
                fh.write(f"{k}={self.meta[k]}\n")
            fh.write(f"timestamp={datetime.now(timezone.utc).isoformat()}\n")
            fh.write(f"git_rev={_git_rev()}\n")
        (out / "plot.py").write_text(_PLOT_SCRIPT)
        return out / "results.csv"


def _cell(v):
    if v is None:
        return ""
    return repr(float(v))


def _git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


# 1D convergence tables --------------------------------------------------------


def _interval_row(n, alpha, eps, K, f_nodes, exact, window=None):
    """Solve on n interior + 2 endpoint nodes with right-hand side
    f_nodes(x), then measure E and Ehat against exact(x) = (u, f) on the
    staggered companion grid (spacing 2/n, offset 2/n from the ends),
    restricted to |x| < window when one is given. The grid is uniform,
    endpoint-free, and never closer to +-1 than the node set resolves,
    which is where the clipped operator of the interpolant carries an
    irreducible boundary-layer error."""
    ps = uniform_interval(n + 2)
    basis = GmqBasis(ps.points, FracParams(1, alpha), eps)
    rhs = np.concatenate([f_nodes(ps.interior), np.zeros(2)])

    t0 = time.perf_counter()
    sm = assemble(ps, basis, K=K)
    lam = sm.solve(rhs)
    seconds = time.perf_counter() - t0

    tp = uniform_interval(n + 1).interior
    if window is not None:
        tp = tp[np.abs(tp[:, 0]) < window - 1e-12]
    u_tp, f_tp = exact(tp)
    e = rms_error(u_tp, evaluate_interpolant(lam, basis, tp))
    ehat = rms_error(f_tp, forward_frac_lap_clipped(lam, basis, tp, K=K))
    return RunRow(n=n, e=e, ehat=ehat, cond=condition_estimate(sm), seconds=seconds)


def _compact_table(label, p, alpha, eps, K, ns):
    """Convergence sweep for the compact profile u = (1-x^2)^p_+."""
    rep = RunReport(label, meta=dict(d=1, alpha=alpha, eps=eps, eps_mode="absolute",
                                     case=f"compact p={p:g}", K=K))
    exact = lambda x: case2(1, alpha, p, x)
    for n in ns:
        rep.add(_interval_row(n, alpha, eps, K, lambda x: exact(x)[1], exact))
    return rep


def preset_table2(alpha=1.2, eps=1.5, K=48, ns=(2, 4, 8, 16)):
    """Forward-residual convergence for the compact-support hat profile
    u = (1-x^2)_+ on the interval."""
    return _compact_table("table2", 1.0, alpha, eps, K, ns)


def preset_table3(alpha=1.2, eps=1.5, K=48, ns=(2, 4, 8, 16)):
    """Same sweep for the smoother compact profile u = (1-x^2)^2_+."""
    return _compact_table("table3", 2.0, alpha, eps, K, ns)


def _scaled_rhs(alpha, xs, n_quad=200):
    """Right-hand side for the interior-singularity profile u=(1-|2x|^2)^alpha_+.

    Inside the support the closed form applies; outside it the operator
    reduces to -c * int u(y)/|x-y|^(1+alpha) dy over the support, computed
    with the substitution y = sin(t)/2 that turns u into cos(t)^(2*alpha)
    and removes the endpoint singularity of the integrand."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    out = np.empty_like(xs)
    inside = np.abs(xs) < 0.5
    if np.any(inside):
        _, out[inside] = case2_scaled(1, alpha, alpha, 2.0, xs[inside])
    if np.any(np.logical_not(inside)):
        rule = gauss_legendre_01(n_quad)
        t = -np.pi / 2.0 + np.pi * rule.nodes
        w = np.pi * rule.weights * 0.5 * np.cos(t) * np.cos(t) ** (2.0 * alpha)
        y = 0.5 * np.sin(t)
        c = coeff_c(FracParams(1, alpha))
        xe = xs[np.logical_not(inside)]
        out[np.logical_not(inside)] = [-c * np.sum(w / np.abs(x - y) ** (1.0 + alpha))
                                       for x in xe]
    return out


def preset_table4(alpha=1.2, K=48, ns=(256, 512, 1024, 2048)):
    """Interior-singularity regime: u = (1-|2x|^2)^alpha_+ with the shape
    parameter tied to the spacing (eps = 4/n); the kink inside the domain
    caps the rate at about 1/2 regardless of alpha. Errors are measured
    inside the support |x| < 1/2, where the closed form holds."""
    rep = RunReport("table4", meta=dict(d=1, alpha=alpha, eps_mode="2h (h=2/N)",
                                        case="compact p=alpha, scale 2", K=K))
    exact = lambda x: case2_scaled(1, alpha, alpha, 2.0, x)
    for n in ns:
        rep.add(_interval_row(n, alpha, 4.0 / n, K, lambda x: _scaled_rhs(alpha, x),
                              exact, window=0.5))
    return rep


# 2D convergence tables --------------------------------------------------------


def preset_table5(alpha=1.0, eps=1.5, K=48, M=96, levels=(3, 5, 7, 9, 11)):
    """Globally smooth 2D problem u = (1+|x|^2)^(-3/2) on ring layouts.

    The solution is itself a basis-family profile, so the exterior datum is
    fed through the tail correction and accuracy is limited only by
    conditioning; expect near-spectral decay of E."""
    from fracrbf.exterior import GmqProfile

    rep = RunReport("table5", meta=dict(d=2, alpha=alpha, eps=eps, eps_mode="absolute",
                                        case="smooth", K=K, M=M))
    g = GmqProfile(np.zeros(2), 1.0, -1.5)
    tp = test_points_disk()
    u_tp, _ = case1(2, alpha, tp)
    for lvl in levels:
        ps = polar_layout(lvl, lvl)
        basis = GmqBasis(ps.points, FracParams(2, alpha), eps)

        t0 = time.perf_counter()
        sm = assemble(ps, basis, K=K, M=M)
        f = lambda pts: case1(2, alpha, pts)[1]
        lam, _ = solve_poisson(ps, basis, f, g=g, K=K, M=M, system=sm)
        seconds = time.perf_counter() - t0

        e = rms_error(u_tp, evaluate_interpolant(lam, basis, tp))
        rep.add(RunRow(n=ps.n_total, e=e, cond=condition_estimate(sm),
                       seconds=seconds), dim=2)
    return rep


def preset_table6(alpha=1.2, K=32, M=64, hs=(0.5, 0.25, 0.125, 0.0625, 0.03125)):
    """Nonsmooth 2D problem u = (1-|x|^2)^(1+alpha/2)_+ on lattice grids
    with eps = 2h; algebraic convergence, rates reported per axis."""
    rep = RunReport("table6", meta=dict(d=2, alpha=alpha, eps_mode="2h (h=grid step)",
                                        case="compact p=1+alpha/2", K=K, M=M))
    p = 1.0 + alpha / 2.0
    tp = test_points_disk()
    u_tp, _ = case2(2, alpha, p, tp)
    for h in hs:
        ps = disk_grid(h)
        basis = GmqBasis(ps.points, FracParams(2, alpha), 2.0 * h)
        _, f_nodes = case2(2, alpha, p, ps.interior)

        t0 = time.perf_counter()
        sm = assemble(ps, basis, K=K, M=M)
        rhs = np.zeros(ps.n_total)
        rhs[: ps.n_interior] = f_nodes
        lam = sm.solve(rhs)
        seconds = time.perf_counter() - t0

        e = rms_error(u_tp, evaluate_interpolant(lam, basis, tp))
        rep.add(RunRow(n=ps.n_total, e=e, cond=condition_estimate(sm),
                       seconds=seconds), dim=2)
    return rep


# figure presets ---------------------------------------------------------------


def _constant_source(label, ps, alphas, eps, K, M, out, exact=None, **meta):
    """One f=1 solve per alpha on a fixed point set; writes the nodal
    solution field per alpha and, when exact(alpha, x) is given, E and the
    pointwise-error field."""
    rep = RunReport(label, meta=dict(d=2, eps=eps, eps_mode="absolute", case="f=1",
                                     K=K, M=M, alphas=",".join(str(a) for a in alphas),
                                     row_order="one row per alpha, listed order", **meta))
    outp = Path(out) if out is not None else None
    if outp is not None:
        outp.mkdir(parents=True, exist_ok=True)
    for alpha in alphas:
        basis = GmqBasis(ps.points, FracParams(2, alpha), eps)
        t0 = time.perf_counter()
        sm = assemble(ps, basis, K=K, M=M)
        lam, u_nodes = solve_poisson(ps, basis, lambda pts: np.ones(len(pts)),
                                     K=K, M=M, system=sm)
        seconds = time.perf_counter() - t0
        row = RunRow(n=ps.n_total, cond=condition_estimate(sm), seconds=seconds)
        fields = {"solution": u_nodes}
        if exact is not None:
            u = exact(alpha, ps.interior)
            row.e = rms_error(u, u_nodes)
            fields["error"] = np.abs(u_nodes - u)
        rep.add(row, dim=2)
        if outp is not None:
            for name, values in fields.items():
                write_field(outp / f"{name}_alpha{alpha}.csv", ps.interior, values)
    return rep


def _disk_exact(alpha, pts):
    """(1-|x|^2)^(alpha/2) / (2^alpha Gamma(1+alpha/2)^2), the f=1 solution."""
    scale = 2.0 ** alpha * gamma_fn(1.0 + alpha / 2.0) ** 2
    return (1.0 - np.sum(pts ** 2, axis=1)) ** (alpha / 2.0) / scale


def preset_fig_disk(alphas=(0.4, 0.8, 1.2, 1.6), eps=0.8, K=48, M=96, out=None):
    """Constant-source solve on the ring layout with N=111; emits solution
    and pointwise-error fields per alpha."""
    return _constant_source("fig-disk", polar_layout(10, 10), alphas, eps, K, M, out,
                            exact=_disk_exact)


def preset_fig_square(alphas=(0.4, 0.8, 1.2, 1.6), eps=0.05, grid_h=0.03125,
                      K=32, M=64, out=None):
    """Constant-source solve on the square embedded in the disk; only the
    solution profile is emitted (no closed form exists here)."""
    ps = clipped_grid(grid_h, Domain("embedded", half_width=np.sqrt(2.0) / 2.0))
    return _constant_source("fig-square", ps, alphas, eps, K, M, out, grid_h=grid_h)


def preset_fig_mixed(alpha=1.0, eps=1.0, dt=0.001, t_end=0.5, K=32, M=64, out=None):
    """Mixed local/nonlocal diffusion on the N=73 ring layout for
    chi in {0, 1/2, 1}; emits snapshot fields and a peak-decay summary."""
    ps = polar_layout(8, 8)
    basis = GmqBasis(ps.points, FracParams(2, alpha), eps)
    rep = RunReport("fig-mixed", meta=dict(
        d=2, alpha=alpha, eps=eps, eps_mode="absolute", dt=dt, t_end=t_end, K=K, M=M,
        row_order="one row per chi in (0, 0.5, 1); E holds the final peak"))
    u0 = lambda pts: np.exp(-16.0 * pts[:, 0] ** 2 - 4.0 * pts[:, 1] ** 2)
    snaps = tuple(np.round(np.linspace(0.0, t_end, 6)[1:-1], 12))
    outp = Path(out) if out is not None else None
    sm = assemble(ps, basis, K=K, M=M)
    peaks = {}
    for chi in (0.0, 0.5, 1.0):
        cfg = EvolutionConfig(dt=dt, t_end=t_end, chi=chi, snapshot_times=snaps)
        t0 = time.perf_counter()
        times, fields = crank_nicolson_mixed(ps, basis, cfg, u0, K=K, M=M, system=sm)
        seconds = time.perf_counter() - t0
        peaks[chi] = float(np.max(np.abs(fields[-1])))
        rep.add(RunRow(n=ps.n_total, e=peaks[chi], seconds=seconds), dim=2)
        if outp is not None:
            write_snapshots(outp, ps, times, fields, prefix=f"mixed_chi{chi}")
    rep.meta["final_peaks"] = ",".join(f"{c}:{peaks[c]:.6e}" for c in sorted(peaks))
    return rep


def preset_fig_qg(alpha=1.0, eps=0.1, dt=0.01, t_end=2.0, kappa=0.001,
                  grid_h=0.0625, K=32, M=64, out=None):
    """Single-vortex quasi-geostrophic run on the lattice disk grid; emits
    scalar-field snapshots plus the anisotropy-decay summary."""
    ps = disk_grid(grid_h)
    basis = GmqBasis(ps.points, FracParams(2, alpha), eps)
    rep = RunReport("fig-qg", meta=dict(d=2, alpha=alpha, eps=eps, eps_mode="absolute", dt=dt,
                                        t_end=t_end, kappa=kappa, grid_h=grid_h, K=K, M=M))
    theta0 = lambda pts: np.exp(-4.0 * pts[:, 0] ** 2 - 64.0 * pts[:, 1] ** 2)
    snaps = tuple(np.round(np.arange(1, 8) * t_end / 8.0, 12))
    cfg = EvolutionConfig(dt=dt, t_end=t_end, kappa=kappa, snapshot_times=snaps)
    t0 = time.perf_counter()
    times, fields = run_qg(ps, basis, cfg, theta0,
                           out_dir=out, K=K, M=M)
    seconds = time.perf_counter() - t0
    ratios = [anisotropy_ratio(ps.interior, f) for f in fields]
    for t, f, r in zip(times, fields, ratios):
        rep.add(RunRow(n=ps.n_total, e=float(np.max(np.abs(f))), ehat=r,
                       seconds=seconds if t == times[-1] else 0.0), dim=2)
    rep.meta["columns_note"] = "E column holds max|theta|, Ehat column the anisotropy ratio"
    if out is not None:
        with open(Path(out) / "anisotropy.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "peak", "ratio"])
            for t, f, r in zip(times, fields, ratios):
                w.writerow([f"{t:.6f}", repr(float(np.max(np.abs(f)))), repr(r)])
    return rep


PRESETS = {
    "table2": preset_table2,
    "table3": preset_table3,
    "table4": preset_table4,
    "table5": preset_table5,
    "table6": preset_table6,
    "fig-disk": preset_fig_disk,
    "fig-square": preset_fig_square,
    "fig-mixed": preset_fig_mixed,
    "fig-qg": preset_fig_qg,
}


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Viewer for the data files next to this script: convergence curves from
results.csv, scatter maps for any field/snapshot CSVs."""
import csv
import glob
import os
import sys

try:
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit("matplotlib is required to plot (pip install matplotlib)")

here = os.path.dirname(os.path.abspath(__file__))


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


if os.path.exists(os.path.join(here, "results.csv")):
    head, rows = read_csv(os.path.join(here, "results.csv"))
    ns = [float(r[0]) for r in rows]
    fig, ax = plt.subplots()
    for col, name in ((1, "E"), (3, "Ehat"), (5, "cond")):
        vals = [(n, float(r[col])) for n, r in zip(ns, rows) if r[col]]
        if vals:
            ax.loglog([v[0] for v in vals], [v[1] for v in vals],
                      marker="o", label=name)
    ax.set_xlabel("N")
    ax.legend()
    ax.grid(True, which="both", alpha=0.3)
    fig.savefig(os.path.join(here, "results.png"), dpi=150)
    print("wrote results.png")

fields = sorted(set(glob.glob(os.path.join(here, "*_t*.csv"))
                    + glob.glob(os.path.join(here, "solution_*.csv"))
                    + glob.glob(os.path.join(here, "error_*.csv"))))
for path in fields:
    head, rows = read_csv(path)
    xs = [float(r[0]) for r in rows]
    ys = [float(r[1]) for r in rows]
    vs = [float(r[2]) for r in rows]
    fig, ax = plt.subplots()
    sc = ax.scatter(xs, ys, c=vs, s=12, cmap="viridis")
    fig.colorbar(sc, ax=ax)
    ax.set_aspect("equal")
    ax.set_title(os.path.basename(path))
    png = path[:-4] + ".png"
    fig.savefig(png, dpi=150)
    plt.close(fig)
    print("wrote", os.path.basename(png))
'''
