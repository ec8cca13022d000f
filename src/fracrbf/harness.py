"""Benchmark harness: error metrics, rate tables, timed preset runs that
reproduce the published convergence experiments, CSV and plot emission.

Presets write nothing; RunReport.write fills a run directory. results.csv
holds the numbers that must be bit-stable across reruns (N, E, rate, Ehat,
rate, cond); wall-clock goes to timings.csv; run_meta.txt records the
configuration, timestamp and git revision; plot.py is a self-contained
viewer for the data files. A preset's field, snapshot and summary files
ride in the report's `files` and are written beside them.
"""

import csv
import functools
import subprocess
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from fracrbf.dynamics import (EvolutionConfig, _check_chi, _check_kappa, anisotropy_ratio,
                              crank_nicolson_mixed, mixed_operators, qg_operators, run_qg)
from fracrbf.exterior import exterior_data_correction
from fracrbf.geometry import clipped_grid, disk_grid, polar_layout, uniform_interval
from fracrbf.linsys import assemble, condition_estimate
from fracrbf.oracles import case1, case1_datum, case2, case2_scaled
from fracrbf.rbf import GmqBasis, phi_block
from fracrbf.specialfun import FracParams, gamma_fn
from fracrbf.steady import (evaluate_interpolant, forward_frac_lap_clipped, interpolate,
                            solve_poisson)

__all__ = [
    "rms_error",
    "convergence_rate",
    "RunReport",
    "write_files",
    "snapshot_files",
    "solve_row",
    "steady_table",
    "forward_table",
    "preset_table2",
    "preset_table3",
    "preset_table4",
    "preset_table5",
    "preset_table6",
    "preset_fig_disk",
    "preset_fig_square",
    "preset_fig_mixed",
    "preset_fig_qg",
    "mixed_run",
    "vortex_run",
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


def measurement_points(ps, window=None):
    """Where a table row measures its errors.

    On the interval with n interior nodes: the staggered companion grid,
    spacing 2/n and offset 2/n from the ends, restricted to |x| < window
    when one is given. It is uniform, endpoint-free, and never closer to
    +-1 than the node set resolves, which is where the clipped operator of
    the interpolant carries an irreducible boundary-layer error. On the
    disk, whatever the point set: the origin plus a polar lattice of 40
    radii up to 0.95 by 64 angles."""
    if ps.points.shape[1] == 1:
        tp = uniform_interval(ps.n_interior + 1).interior
        return tp if window is None else tp[np.abs(tp[:, 0]) < window - 1e-12]
    radii = 0.95 * np.arange(1, 41) / 40
    angles = 2.0 * np.pi * np.arange(64) / 64
    rr, tt = np.meshgrid(radii, angles, indexing="ij")
    pts = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
    return np.vstack([np.zeros((1, 2)), pts])


def table_n(ps):
    """The N of a table row: the interior count on the interval, whose two
    ends only carry the exterior value, and all points on the disk."""
    return ps.n_interior if ps.points.shape[1] == 1 else ps.n_total


def residual_error(lam, basis, points, f, g=None):
    """Ehat: the relative residual of the clipped operator of the expansion
    against f, the right-hand side's values at points, plus the tail of the
    exterior datum g when one is given, as the collocation rows carry it."""
    if g is not None:
        f = f + exterior_data_correction(g, points, basis)
    return rms_error(f, forward_frac_lap_clipped(lam, basis, points))


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
    """A preset's rows and configuration, plus `files`: any further CSV it
    produces, as file name -> (header, rows), formatted only when written."""

    label: str
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)

    def add(self, row):
        """Append a row, deriving rates from the previous one, per axis of
        the dimension meta["d"] (1 when unset)."""
        if self.rows:
            prev, dim = self.rows[-1], self.meta.get("d", 1)
            if row.e is not None and prev.e is not None:
                row.rate_e = convergence_rate(prev.e, row.e, prev.n, row.n, dim)
            if row.ehat is not None and prev.ehat is not None:
                row.rate_ehat = convergence_rate(prev.ehat, row.ehat, prev.n, row.n, dim)
        self.rows.append(row)

    def write(self, out_dir):
        """Fill out_dir with the run's files; returns the path of results.csv."""
        out = Path(out_dir)
        write_files(out, {
            "results.csv": (["N", "E", "rate", "Ehat", "rate", "cond"],
                            [[str(r.n)] + ["" if v is None else v for v in
                                           (r.e, r.rate_e, r.ehat, r.rate_ehat, r.cond)]
                             for r in self.rows]),
            "timings.csv": (["N", "seconds"], [[str(r.n), f"{r.seconds:.3f}"] for r in self.rows]),
            **self.files})
        with open(out / "run_meta.txt", "w") as fh:
            fh.write(f"label={self.label}\n")
            for k in sorted(self.meta):
                fh.write(f"{k}={self.meta[k]}\n")
            fh.write(f"timestamp={datetime.now(timezone.utc).isoformat()}\n")
            fh.write(f"git_rev={_git_rev()}\n")
        (out / "plot.py").write_text(_PLOT_SCRIPT)
        return out / "results.csv"


def write_files(out_dir, files):
    """Write each name -> (header, rows) of files as one CSV in out_dir. A
    string cell is written as is, any other as repr(float(cell)), so every
    float round-trips and reruns are bit-stable."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in files.items():
        with open(out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([c if isinstance(c, str) else repr(float(c)) for c in row])


def _field_file(points, values):
    """(header, rows) of a field file: one x1,x2,value row per point."""
    return ["x1", "x2", "value"], np.column_stack([points, values])


def _stamps(times):
    """Each time as snapshot file names and manifests print it, to six
    decimals; times that print alike would share a file and are refused."""
    stamps = [f"{t:.6f}" for t in times]
    if len(set(stamps)) < len(stamps):
        raise ValueError("snapshot times that agree to six decimals would share a file")
    return stamps


def snapshot_files(ps, times, fields, prefix="field"):
    """One field file per snapshot time plus a manifest listing them, as
    name -> (header, rows) in time order, the manifest last.

    Boundary nodes are appended with their zero value so every file is a
    complete field.
    """
    stamps = _stamps(times)
    names = [f"{prefix}_t{stamp}.csv" for stamp in stamps]
    pad = np.zeros(ps.n_total - ps.n_interior)
    files = {name: _field_file(ps.points, np.concatenate([u, pad]))
             for name, u in zip(names, fields)}
    files[f"{prefix}_manifest.csv"] = (["time", "file"],
                                       [[stamp, name] for stamp, name in zip(stamps, names)])
    return files


def _git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=Path(__file__).parent,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def solve_row(ps, basis, f, g=None):
    """One steady solve of every steady preset and of `fracrbf solve`.

    Returns (row, lam, u): the row carries the table N and cond(A_phi), and its seconds
    cover assemble, right-hand side and solve; u holds the solution's values
    at the interior points. The solve consumes S, so A_phi is evaluated only
    after S is gone: u is read off its interior rows, and then the condition
    estimate factors it in place."""
    t0 = time.perf_counter()
    lam = solve_poisson(assemble(ps, basis), f, g=g)
    seconds = time.perf_counter() - t0
    a = phi_block(basis, basis.centers)
    u = a[:ps.n_interior] @ lam
    return RunRow(n=table_n(ps), cond=condition_estimate(basis, a), seconds=seconds), lam, u


def steady_table(rep, alpha, layouts, exact, K, M=64, g=None, window=None):
    """The steady convergence tables and `fracrbf solve`: one solve_row per
    (point set, eps) of layouts, added to rep and returned in it.

    exact(x) = (u, f) is the closed form. The equation rows take f from it
    and the exterior datum g; E is measured against u at
    measurement_points(ps, window), and on the interval Ehat too."""
    for ps, eps in layouts:
        d = ps.points.shape[1]
        basis = GmqBasis(ps.points, FracParams(d, alpha), eps, K=K, M=M)
        row, lam, _ = solve_row(ps, basis, lambda x: exact(x)[1], g=g)
        tp = measurement_points(ps, window)
        u_tp, f_tp = exact(tp)
        row.e = rms_error(u_tp, evaluate_interpolant(lam, basis, tp))
        if d == 1:
            row.ehat = residual_error(lam, basis, tp, f_tp, g)
        rep.add(row)
    return rep


def forward_table(rep, alpha, layouts, exact, K, M, g=None):
    """`fracrbf forward`: interpolate u at all N points of each (point set,
    eps) of layouts. Ehat is the residual of the clipped operator at the
    measurement points, with the exterior datum g's tail; u is sampled
    without f, which has no closed form at the points on the boundary. A
    row's seconds cover the basis build through the residual."""
    for ps, eps in layouts:
        t0 = time.perf_counter()
        basis = GmqBasis(ps.points, FracParams(ps.points.shape[1], alpha), eps, K=K, M=M)
        lam = interpolate(basis, exact(ps.points, f_required=False)[0])
        tp = measurement_points(ps)
        ehat = residual_error(lam, basis, tp, exact(tp)[1], g)
        rep.add(RunRow(n=table_n(ps), ehat=ehat, seconds=time.perf_counter() - t0))
    return rep


# 1D convergence tables --------------------------------------------------------


def _compact_table(label, p, alpha, eps, K, ns):
    """Convergence sweep for the compact profile u = (1-x^2)^p_+."""
    rep = RunReport(label, meta=dict(d=1, alpha=alpha, eps=eps, eps_mode="absolute",
                                     case=f"compact p={p:g}", K=K))
    return steady_table(rep, alpha, ((uniform_interval(n + 2), eps) for n in ns),
                        functools.partial(case2, 1, alpha, p), K)


def preset_table2(alpha=1.2, eps=1.5, K=48, ns=(2, 4, 8, 16)):
    """Forward-residual convergence for the compact-support hat profile
    u = (1-x^2)_+ on the interval."""
    return _compact_table("table2", 1.0, alpha, eps, K, ns)


def preset_table3(alpha=1.2, eps=1.5, K=48, ns=(2, 4, 8, 16)):
    """Same sweep for the smoother compact profile u = (1-x^2)^2_+."""
    return _compact_table("table3", 2.0, alpha, eps, K, ns)


def preset_table4(alpha=1.2, K=48, ns=(256, 512, 1024, 2048)):
    """Interior-singularity regime: u = (1-|2x|^2)^alpha_+ with the shape
    parameter tied to the spacing (eps = 4/n); the kink inside the domain
    caps the rate at about 1/2 regardless of alpha. Errors are measured
    inside the support |x| < 1/2."""
    rep = RunReport("table4", meta=dict(d=1, alpha=alpha, eps_mode="2h (h=2/N)",
                                        case="compact p=alpha, scale 2", K=K))
    return steady_table(rep, alpha, ((uniform_interval(n + 2), 4.0 / n) for n in ns),
                        functools.partial(case2_scaled, 1, alpha, alpha, 2.0), K, window=0.5)


# 2D convergence tables --------------------------------------------------------


def preset_table5(alpha=1.0, eps=1.5, K=48, M=96, levels=(3, 5, 7, 9, 11)):
    """Globally smooth 2D problem u = (1+|x|^2)^(-3/2) on ring layouts.

    The solution is itself a basis-family profile, so the exterior datum is
    fed through the tail correction and accuracy is limited only by
    conditioning; expect near-spectral decay of E."""
    rep = RunReport("table5", meta=dict(d=2, alpha=alpha, eps=eps, eps_mode="absolute",
                                        case="smooth", K=K, M=M))
    return steady_table(rep, alpha, ((polar_layout(lvl, lvl), eps) for lvl in levels),
                        functools.partial(case1, 2, alpha), K, M, g=case1_datum(2))


def preset_table6(alpha=1.2, K=32, M=64, hs=(0.5, 0.25, 0.125, 0.0625, 0.03125)):
    """Nonsmooth 2D problem u = (1-|x|^2)^(1+alpha/2)_+ on lattice grids
    with eps = 2h; algebraic convergence, rates reported per axis."""
    rep = RunReport("table6", meta=dict(d=2, alpha=alpha, eps_mode="2h (h=grid step)",
                                        case="compact p=1+alpha/2", K=K, M=M))
    p = 1.0 + alpha / 2.0
    return steady_table(rep, alpha, ((disk_grid(h), 2.0 * h) for h in hs),
                        functools.partial(case2, 2, alpha, p), K, M)


# figure presets ---------------------------------------------------------------


def _constant_source(label, ps, alphas, eps, K, M, exact=None, **meta):
    """One f=1 solve per alpha on a fixed point set; files the nodal
    solution field per alpha and, when exact(alpha, x) is given, E and the
    pointwise-error field."""
    rep = RunReport(label, meta=dict(d=2, eps=eps, eps_mode="absolute", case="f=1",
                                     K=K, M=M, alphas=",".join(str(a) for a in alphas),
                                     row_order="one row per alpha, listed order", **meta))
    for alpha in alphas:
        basis = GmqBasis(ps.points, FracParams(2, alpha), eps, K=K, M=M)
        row, _, u_nodes = solve_row(ps, basis, lambda pts: np.ones(len(pts)))
        fields = {"solution": u_nodes}
        if exact is not None:
            u = exact(alpha, ps.interior)
            row.e = rms_error(u, u_nodes)
            fields["error"] = np.abs(u_nodes - u)
        rep.add(row)
        for name, values in fields.items():
            rep.files[f"{name}_alpha{alpha}.csv"] = _field_file(ps.interior, values)
    return rep


def _disk_exact(alpha, pts):
    """(1-|x|^2)^(alpha/2) / (2^alpha Gamma(1+alpha/2)^2), the f=1 solution."""
    scale = 2.0 ** alpha * gamma_fn(1.0 + alpha / 2.0) ** 2
    return (1.0 - np.sum(pts ** 2, axis=1)) ** (alpha / 2.0) / scale


def preset_fig_disk(alphas=(0.4, 0.8, 1.2, 1.6), eps=0.8, K=48, M=96):
    """Constant-source solve on the ring layout with N=111; emits solution
    and pointwise-error fields per alpha."""
    return _constant_source("fig-disk", polar_layout(10, 10), alphas, eps, K, M,
                            exact=_disk_exact)


def preset_fig_square(alphas=(0.4, 0.8, 1.2, 1.6), eps=0.05, grid_h=0.03125,
                      K=32, M=64):
    """Constant-source solve on the square embedded in the disk; only the
    solution profile is emitted (no closed form exists here)."""
    ps = clipped_grid(grid_h)
    return _constant_source("fig-square", ps, alphas, eps, K, M, grid_h=grid_h)


def _schedule(dt, t_end, snapshots):
    """The time grid of a run, refused before its first step when two of
    its snapshots would share a file."""
    cfg = EvolutionConfig(dt, t_end, snapshots)
    _stamps([step * cfg.dt for step in cfg.snapshot_steps()])
    return cfg


def mixed_run(ps, basis, dt, t_end, chis):
    """The mixed-diffusion runs of fig-mixed and `fracrbf evolve`, one per chi
    of chis on one build of mixed_operators: an elongated Gaussian bump,
    snapshots at every fifth of the run. The schedule and every chi are
    checked before the build. Returns one (times, fields, seconds) per chi,
    seconds timing its stepping."""
    cfg = _schedule(dt, t_end, 5)
    for chi in chis:
        _check_chi(chi)
    ops = mixed_operators(ps, basis)
    x1, x2 = ps.interior.T
    u0 = np.exp(-16.0 * x1 ** 2 - 4.0 * x2 ** 2)
    runs = []
    for chi in chis:
        t0 = time.perf_counter()
        times, fields = crank_nicolson_mixed(ops, cfg, u0, chi)
        runs.append((times, fields, time.perf_counter() - t0))
    return runs


def vortex_run(ps, basis, dt, t_end, kappa):
    """The single-vortex run of fig-qg and `fracrbf qg` on the operators of
    basis: an elongated Gaussian scalar, snapshots at every eighth of the
    run. The schedule, kappa and the initial field's anisotropy ratio (none
    without 2D spread) are checked before the operator build. Returns (times,
    fields, ratios, seconds): the anisotropy ratio of each snapshot, and
    seconds timing the operator build and the stepping."""
    cfg = _schedule(dt, t_end, 8)
    _check_kappa(kappa)
    x1, x2 = ps.interior.T
    theta0 = np.exp(-4.0 * x1 ** 2 - 64.0 * x2 ** 2)
    anisotropy_ratio(ps.interior, theta0)
    t0 = time.perf_counter()
    times, fields = run_qg(qg_operators(ps, basis), cfg, theta0, kappa)
    seconds = time.perf_counter() - t0
    return times, fields, [anisotropy_ratio(ps.interior, f) for f in fields], seconds


def preset_fig_mixed(alpha=1.0, eps=1.0, dt=0.001, t_end=0.5, K=32, M=64):
    """Mixed local/nonlocal diffusion on the N=73 ring layout for
    chi in {0, 1/2, 1}; emits snapshot fields and a peak-decay summary."""
    ps = polar_layout(8, 8)
    basis = GmqBasis(ps.points, FracParams(2, alpha), eps, K=K, M=M)
    rep = RunReport("fig-mixed", meta=dict(
        d=2, alpha=alpha, eps=eps, eps_mode="absolute", dt=dt, t_end=t_end, K=K, M=M,
        row_order="one row per chi in (0, 0.5, 1); E holds the final peak"))
    chis = (0.0, 0.5, 1.0)
    for chi, (times, fields, seconds) in zip(chis, mixed_run(ps, basis, dt, t_end, chis)):
        rep.add(RunRow(n=ps.n_total, e=float(np.max(np.abs(fields[-1]))), seconds=seconds))
        rep.files.update(snapshot_files(ps, times, fields, prefix=f"mixed_chi{chi}"))
    rep.meta["final_peaks"] = ",".join(f"{c}:{r.e:.6e}" for c, r in zip(chis, rep.rows))
    return rep


def preset_fig_qg(alpha=1.0, eps=0.1, dt=0.01, t_end=2.0, kappa=0.001,
                  grid_h=0.0625, K=32, M=64):
    """Single-vortex quasi-geostrophic run on the lattice disk grid; emits
    scalar-field snapshots plus the anisotropy-decay summary."""
    ps = disk_grid(grid_h)
    basis = GmqBasis(ps.points, FracParams(2, alpha), eps, K=K, M=M)
    rep = RunReport("fig-qg", meta=dict(d=2, alpha=alpha, eps=eps, eps_mode="absolute", dt=dt,
                                        t_end=t_end, kappa=kappa, grid_h=grid_h, K=K, M=M))
    times, fields, ratios, seconds = vortex_run(ps, basis, dt, t_end, kappa)
    for t, f, r in zip(times, fields, ratios):
        rep.add(RunRow(n=ps.n_total, e=float(np.max(np.abs(f))), ehat=r,
                       seconds=seconds if t == times[-1] else 0.0))
    rep.meta["columns_note"] = "E column holds max|theta|, Ehat column the anisotropy ratio"
    rep.files.update(snapshot_files(ps, times, fields))
    rep.files["anisotropy.csv"] = (["time", "peak", "ratio"], [
        [stamp, r.e, r.ehat] for stamp, r in zip(_stamps(times), rep.rows)])
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
