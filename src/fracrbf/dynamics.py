"""Time stepping on nodal interior values: Crank-Nicolson for the mixed
local/nonlocal diffusion model and the Shu-Osher SSP-RK3 scheme for the
quasi-geostrophic system.

Every stepper works on interior nodal values only. Zero exterior data is
enforced structurally through the reduced operators from nodal_operator,
so boundary rows never enter the time loop and the implicit matrix is
fixed for the whole run.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from fracrbf.linsys import assemble, nodal_operator
from fracrbf.rbf import GmqBasis, classical_lap_block, grad_blocks
from fracrbf.specialfun import FracParams

__all__ = [
    "EvolutionConfig",
    "crank_nicolson_mixed",
    "ssp_rk3_step",
    "QgOperators",
    "qg_operators",
    "qg_rhs",
    "run_qg",
    "write_field",
    "write_snapshots",
    "anisotropy_ratio",
]


@dataclass(frozen=True)
class EvolutionConfig:
    """Time grid and model knobs shared by the steppers."""

    dt: float
    t_end: float
    chi: float = 1.0
    kappa: float = 0.0
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if not 0.0 <= self.chi <= 1.0:
            raise ValueError("chi must lie in [0, 1]")
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        object.__setattr__(
            self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))

    @property
    def n_steps(self):
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-6 * max(self.dt, self.t_end):
            raise ValueError("t_end must be a whole number of steps")
        return max(n, 0)

    def snapshot_steps(self):
        """Requested snapshot times as step indices; the initial and final
        states are always recorded."""
        idx = {0, self.n_steps}
        for t in self.snapshot_times:
            k = int(round(t / self.dt))
            if not 0 <= k <= self.n_steps:
                raise ValueError("snapshot time outside [0, t_end]")
            idx.add(k)
        return sorted(idx)


def _sample(u0, points):
    vals = u0(points) if callable(u0) else u0
    vals = np.asarray(vals, dtype=float).reshape(-1)
    if vals.shape[0] != points.shape[0]:
        raise ValueError("initial data length does not match the point count")
    if not np.all(np.isfinite(vals)):
        raise ValueError("initial data must be finite")
    return vals


def crank_nicolson_mixed(ps, basis, cfg, u0, K=10, M=64, system=None):
    """Trapezoidal stepping of u_t + [chi*fractional + (1-chi)*classical]u = 0.

    The implicit matrix is factored once and reused for every step. Returns
    (times, fields) at the snapshot steps, fields rowed by time.
    """
    sm = assemble(ps, basis, K=K, M=M) if system is None else system
    a_frac = nodal_operator(sm)
    a_lap = nodal_operator(sm, rows=classical_lap_block(basis, ps.interior))
    a = cfg.chi * a_frac + (1.0 - cfg.chi) * a_lap
    eye = np.eye(ps.n_interior)
    lhs = sla.lu_factor(eye + 0.5 * cfg.dt * a)
    rhs = eye - 0.5 * cfg.dt * a

    u = _sample(u0, ps.interior)
    keep = set(cfg.snapshot_steps())
    out_t, out_u = [], []
    if 0 in keep:
        out_t.append(0.0)
        out_u.append(u.copy())
    for k in range(1, cfg.n_steps + 1):
        u = sla.lu_solve(lhs, rhs @ u)
        if k in keep:
            out_t.append(k * cfg.dt)
            out_u.append(u.copy())
    return np.array(out_t), np.array(out_u)


def ssp_rk3_step(op, u, dt):
    """One third-order Shu-Osher step: three forward-Euler substeps glued
    by convex combinations, so any Euler stability bound is preserved."""
    u1 = u + dt * op(u)
    u2 = 0.75 * u + 0.25 * (u1 + dt * op(u1))
    return u / 3.0 + 2.0 / 3.0 * (u2 + dt * op(u2))


@dataclass(frozen=True)
class QgOperators:
    """Reduced nodal operators applied per quasi-geostrophic stage.

    stream() couples the scalar to the stream function through the
    half-Laplacian collocation system (factored once, back-solved per
    call); dx/dy differentiate nodal fields through the expansion; diss
    is the nodal fractional dissipation operator.
    """

    ps: object
    diss: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    stream_system: object
    phi_top: np.ndarray

    def stream(self, theta):
        rhs = np.zeros(self.ps.n_total)
        rhs[: self.ps.n_interior] = -np.asarray(theta, dtype=float)
        lam = self.stream_system.solve(rhs)
        return self.phi_top @ lam


def qg_operators(ps, eps, alpha=1.0, K=10, M=64):
    """Precompute every matrix the quasi-geostrophic stepper needs."""
    half = GmqBasis(ps.points, FracParams(2, 1.0), eps)
    sm_half = assemble(ps, half, K=K, M=M)
    if alpha == 1.0:
        sm_diss = sm_half
    else:
        sm_diss = assemble(ps, GmqBasis(ps.points, FracParams(2, alpha), eps), K=K, M=M)
    gx, gy = grad_blocks(half, ps.interior)
    return QgOperators(
        ps=ps,
        diss=nodal_operator(sm_diss),
        dx=nodal_operator(sm_half, rows=gx),
        dy=nodal_operator(sm_half, rows=gy),
        stream_system=sm_half,
        phi_top=sm_half.a_phi[: ps.n_interior, :],
    )


def qg_rhs(theta, ops, kappa, advect=True):
    """Nodal tendency -u.grad(theta) - kappa*dissipation with the velocity
    u = (-d/dx2 psi, d/dx1 psi) read off the stream solve."""
    theta = np.asarray(theta, dtype=float)
    out = -kappa * (ops.diss @ theta)
    if advect:
        psi = ops.stream(theta)
        u1 = -(ops.dy @ psi)
        u2 = ops.dx @ psi
        out = out - (u1 * (ops.dx @ theta) + u2 * (ops.dy @ theta))
    return out


def run_qg(ps, basis, cfg, theta0, out_dir=None, advect=True, K=10, M=64):
    """March the active scalar with SSP-RK3.

    Returns (times, fields) at the snapshot steps and, when out_dir is
    given, writes one x1,x2,value CSV per snapshot plus a manifest.
    Aborts when max|theta| exceeds 10x its initial value.
    """
    if basis.params.d != 2:
        raise ValueError("the quasi-geostrophic run lives on the disk")
    ops = qg_operators(ps, basis.eps, alpha=basis.params.alpha, K=K, M=M)
    theta = _sample(theta0, ps.interior)
    cap = 10.0 * float(np.max(np.abs(theta)))
    if cap == 0.0:
        cap = np.inf

    keep = set(cfg.snapshot_steps())
    out_t, out_u = [], []
    if 0 in keep:
        out_t.append(0.0)
        out_u.append(theta.copy())
    for k in range(1, cfg.n_steps + 1):
        theta = ssp_rk3_step(lambda th: qg_rhs(th, ops, cfg.kappa, advect=advect),
                             theta, cfg.dt)
        peak = float(np.max(np.abs(theta)))
        if not np.isfinite(peak) or peak > cap:
            raise FloatingPointError(
                f"blow-up at t={k * cfg.dt:.6g}: max|theta|={peak:.3e} "
                f"exceeds 10x the initial value")
        if k in keep:
            out_t.append(k * cfg.dt)
            out_u.append(theta.copy())
    times, fields = np.array(out_t), np.array(out_u)
    if out_dir is not None:
        write_snapshots(out_dir, ps, times, fields)
    return times, fields


def write_field(path, points, values):
    """One x1,x2,value CSV row per point; floats are written via repr for
    bit-stable reruns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "value"])
        for row, v in zip(points, values):
            writer.writerow([repr(float(row[0])), repr(float(row[1])), repr(float(v))])


def write_snapshots(out_dir, ps, times, fields, prefix="field"):
    """One x1,x2,value CSV per snapshot time plus a manifest listing them.

    Boundary nodes are appended with their zero value so every file is a
    complete field.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pad = ps.n_total - ps.n_interior
    names = []
    for t, u in zip(times, fields):
        name = f"{prefix}_t{t:.6f}.csv"
        full = np.concatenate([np.asarray(u, dtype=float), np.zeros(pad)])
        write_field(out / name, ps.points, full)
        names.append(name)
    with open(out / f"{prefix}_manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "file"])
        for t, name in zip(times, names):
            writer.writerow([f"{t:.6f}", name])
    return names


def anisotropy_ratio(points, values):
    """Eigenvalue ratio (largest/smallest) of the centered second-moment
    matrix weighted by values^2; 1 means isotropic, and the single-vortex
    runs should relax toward 1. Rotation of the field leaves it unchanged."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))[:, :2]
    w = np.asarray(values, dtype=float) ** 2
    mass = float(np.sum(w))
    if mass <= 0.0:
        raise ValueError("zero field has no anisotropy")
    ctr = (w @ pts) / mass
    dx = pts - ctr
    mom = (dx * w[:, None]).T @ dx / mass
    ev = np.linalg.eigvalsh(mom)
    if ev[0] <= 0.0:
        raise ValueError("degenerate field: second-moment matrix not positive")
    return float(ev[1] / ev[0])
