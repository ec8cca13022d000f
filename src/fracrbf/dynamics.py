"""Time stepping on nodal interior values: Crank-Nicolson for the mixed
local/nonlocal diffusion model and the Shu-Osher SSP-RK3 scheme for the
quasi-geostrophic system.

Every stepper takes and returns interior nodal values only. Each operator
is a block of operator rows times the (n_total, n_interior) coefficient map
of nodal_operator, so zero exterior data is enforced structurally, boundary
rows never enter the time loop and the implicit matrix is fixed for the
whole run.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from fracrbf.geometry import as_points
from fracrbf.linsys import _factor, assemble, nodal_operator
from fracrbf.quadrature import integer_order
from fracrbf.rbf import classical_lap_block, grad_blocks, phi_block
from fracrbf.specialfun import FracParams

__all__ = [
    "EvolutionConfig",
    "mixed_operators",
    "crank_nicolson_mixed",
    "ssp_rk3_step",
    "QgOperators",
    "qg_operators",
    "qg_rhs",
    "run_qg",
    "anisotropy_ratio",
]

# the presets take 500 and 200 steps; a count past this is a mistyped dt or t_end
MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class EvolutionConfig:
    """The time grid of a run: n_steps steps of dt up to t_end.

    `snapshots` = k splits the run into k equal intervals and records the
    state at each of their ends: step round(j * n_steps / k), j = 0..k. A
    snapshot that falls exactly half way between two steps is recorded at
    the even one (Python's round): with n_steps 5 and k 2 the middle
    snapshot is step 2, not step 3.
    """

    dt: float
    t_end: float
    snapshots: int = 1

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not (self.t_end >= 0.0 and self.t_end / self.dt < np.inf):
            raise ValueError("t_end must be nonnegative, with a finite step count t_end/dt")
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"t_end/dt asks for {self.n_steps} steps, more than the bound "
                             f"of {MAX_STEPS} steps per run")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-6 * max(self.dt, self.t_end):
            raise ValueError("t_end must be a whole number of steps")
        object.__setattr__(self, "snapshots", integer_order(self.snapshots, "snapshots"))

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))

    def snapshot_steps(self):
        """The distinct step indices of the snapshots, the initial and the
        final state included."""
        n, k = self.n_steps, self.snapshots
        return sorted({round(j * n / k) for j in range(k + 1)})


def _initial(values, n):
    """The initial nodal values as a float vector of the n interior nodes."""
    vals = np.asarray(values, dtype=float).reshape(-1)
    if vals.shape[0] != n:
        raise ValueError("initial data length does not match the operator size")
    if not np.all(np.isfinite(vals)):
        raise ValueError("initial data must be finite")
    return vals


def _march(cfg, u, step):
    """u = step(u, t) at t = k*dt for k = 1..n_steps; returns (times, fields)
    at the snapshot steps, fields rowed by time."""
    keep = cfg.snapshot_steps()
    out = [u.copy()]
    for k in range(1, cfg.n_steps + 1):
        u = step(u, k * cfg.dt)
        if k in keep:
            out.append(u.copy())
    return np.array(keep) * cfg.dt, np.array(out)


def _check_chi(chi):
    """The one rule on chi, the nonlocal fraction of the mixed model."""
    if not 0.0 <= chi <= 1.0:
        raise ValueError("chi must lie in [0, 1]")


def _check_kappa(kappa):
    """The one rule on kappa, the dissipation strength of the QG model."""
    if not 0.0 <= kappa < np.inf:
        raise ValueError("kappa must be nonnegative and finite")


def mixed_operators(ps, basis):
    """The pair (fractional, classical) of Laplacians on interior nodal
    values, each an (n, n) array; one coefficient map serves both, and the
    system is freed before this returns."""
    s = assemble(ps, basis).s
    coeff_map = nodal_operator(ps, basis)
    return s[:ps.n_interior] @ coeff_map, classical_lap_block(basis, ps.interior) @ coeff_map


def crank_nicolson_mixed(ops, cfg, u0, chi):
    """Trapezoidal stepping of u_t + [chi*fractional + (1-chi)*classical]u = 0
    from the interior nodal values u0, with ops the pair (fractional,
    classical) from mixed_operators.

    The implicit matrix is factored once and reused for every step. Returns
    (times, fields) at the snapshot steps, fields rowed by time.
    """
    _check_chi(chi)
    frac, lap = ops
    n = frac.shape[1]
    u = _initial(u0, n)
    a = chi * frac + (1.0 - chi) * lap
    eye = np.eye(n)
    lhs = _factor((eye + 0.5 * cfg.dt * a).T)
    rhs = eye - 0.5 * cfg.dt * a
    return _march(cfg, u, lambda u, t: sla.lu_solve(lhs, rhs @ u, trans=1))


def ssp_rk3_step(op, u, dt):
    """One third-order Shu-Osher step: three forward-Euler substeps glued
    by convex combinations, so any Euler stability bound is preserved."""
    u1 = u + dt * op(u)
    u2 = 0.75 * u + 0.25 * (u1 + dt * op(u1))
    return u / 3.0 + 2.0 / 3.0 * (u2 + dt * op(u2))


@dataclass(frozen=True)
class QgOperators:
    """The two stacked nodal operators of one quasi-geostrophic stage.

    `local` holds, on interior nodal values, the fractional dissipation and
    the x1 and x2 derivatives through the expansion, stacked as a (3n, n)
    array. `velocity` maps the scalar theta straight to the stream-function
    velocity (u1, u2) = (-d/dx2 psi, d/dx1 psi), stacked as a (2n, n) array:
    the half-Laplacian stream solve is folded into it, so a stage costs two
    matrix-vector products and no triangular solve.
    """

    local: np.ndarray
    velocity: np.ndarray

    def stream(self, theta):
        """The velocity (u1, u2) of the scalar theta, stacked as one 2n vector."""
        return self.velocity @ np.asarray(theta, dtype=float)


def qg_operators(ps, basis):
    """Precompute the two operators the quasi-geostrophic stepper applies:
    the dissipation of basis and the half-Laplacian stream map on its centers.

    The stream function of theta is psi = P theta with the stream map
    P = -(A_top S^{-1})[:, :n] of the half-Laplacian system, A_top the
    interior rows of A_phi. P is built from the transposed solve
    S^T X = A_top^T rather than from A_top times S^{-1}[:, :n]: A_phi can be
    so ill-conditioned (4.7e11 on polar_layout(8, 8) with eps 1) that the
    forward product gives a radial scalar a spurious advection of 4.7e-3,
    the transposed form one of 3.0e-7. Each system's coefficient map is
    solved for once, the operators are filled in place, and both systems
    are freed before this returns.
    """
    if basis.params.d != 2:
        raise ValueError("the quasi-geostrophic run lives on the disk")
    n = ps.n_interior
    half = replace(basis, params=FracParams(2, 1.0))
    s = assemble(ps, half).s
    gx, gy = grad_blocks(half, ps.interior)
    coeff_map = nodal_operator(ps, half)
    local = np.empty((3 * n, n))
    if basis.params.alpha == 1.0:
        np.matmul(s[:n], coeff_map, out=local[:n])
    np.matmul(gx, coeff_map, out=local[n:2 * n])
    np.matmul(gy, coeff_map, out=local[2 * n:])
    del gx, gy, coeff_map
    # (A_top S^{-1})[:, :n] = -P, so u1 = -dy P theta = dy (-P) theta; S^T is
    # factored in S's buffer, after S's equation rows were read above
    minus_p = sla.lu_solve(_factor(s.T), phi_block(half, ps.interior).T).T[:, :n]
    del s
    velocity = np.empty((2 * n, n))
    np.matmul(local[2 * n:], minus_p, out=velocity[:n])
    np.matmul(local[n:2 * n], minus_p, out=velocity[n:])
    np.negative(velocity[n:], out=velocity[n:])
    del minus_p
    if basis.params.alpha != 1.0:
        s = assemble(ps, basis).s
        np.matmul(s[:n], nodal_operator(ps, basis), out=local[:n])
    return QgOperators(local=local, velocity=velocity)


def qg_rhs(theta, ops, kappa):
    """Nodal tendency -u.grad(theta) - kappa*dissipation.

    One product with `ops.local` gives the dissipation and both derivatives
    of theta, one with `ops.velocity` (through `ops.stream`) the velocity u.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    loc = ops.local @ theta
    u = ops.stream(theta)
    return -kappa * loc[:n] - (u[:n] * loc[n:2 * n] + u[n:] * loc[2 * n:])


def run_qg(ops, cfg, theta0, kappa):
    """March the active scalar with SSP-RK3 from the interior nodal values
    theta0, with ops from qg_operators and dissipation strength kappa.

    Returns (times, fields) at the snapshot steps, fields rowed by time.
    Aborts when max|theta| exceeds 10x its initial value.
    """
    _check_kappa(kappa)
    theta = _initial(theta0, ops.local.shape[1])
    cap = 10.0 * float(np.max(np.abs(theta)))
    if cap == 0.0:
        cap = np.inf

    def step(th, t):
        th = ssp_rk3_step(lambda v: qg_rhs(v, ops, kappa), th, cfg.dt)
        peak = float(np.max(np.abs(th)))
        if not np.isfinite(peak) or peak > cap:
            raise FloatingPointError(f"blow-up at t={t:.6g}: max|theta|={peak:.3e} "
                                     f"exceeds 10x the initial value")
        return th

    return _march(cfg, theta, step)


def anisotropy_ratio(points, values):
    """Eigenvalue ratio (largest/smallest) of the centered second-moment
    matrix weighted by values^2; 1 means isotropic, and the single-vortex
    runs should relax toward 1. Rotation of the field leaves it unchanged.
    A smaller eigenvalue within roundoff of the larger means no 2D spread."""
    pts = as_points(points, 2)
    w = np.asarray(values, dtype=float) ** 2
    mass = float(np.sum(w))
    if mass <= 0.0:
        raise ValueError("zero field has no anisotropy")
    ctr = (w @ pts) / mass
    dx = pts - ctr
    mom = (dx * w[:, None]).T @ dx / mass
    ev = np.linalg.eigvalsh(mom)
    if ev[0] <= np.finfo(float).eps * ev[1]:
        raise ValueError("degenerate field: second-moment matrix not positive")
    return float(ev[1] / ev[0])
