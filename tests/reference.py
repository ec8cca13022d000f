"""Test-only references: inverse-power and compactly supported profiles for
`fracrbf.checks.hypersingular_oracle`, a brute-force exterior tail,
`table4`'s forcing as the harness composed it around `case2`, the nodal
operators as `linsys` stacked them from row blocks, the solves with A_phi
by `linsys`' factorization rule on copies, and the
out-of-place forms of the kernel blocks, tail factors, tail product and
1-norm that the solver computes in place with the same operations, the
Gauss rule with its recurrence written out twice, and the field, snapshot
and anisotropy file writers that each wrote its own CSV.
The file name keeps pytest from collecting it.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate
import scipy.linalg as sla
from scipy.linalg import get_lapack_funcs

from fracrbf.exterior import TailFactors
from fracrbf.geometry import as_points
from fracrbf.checks import RadialPowerProfile, _gauss_panels
from fracrbf.oracles import case2
from fracrbf.quadrature import gauss_legendre_01, periodic_rule
from fracrbf.rbf import _sq_dist
from fracrbf.specialfun import FracParams, coeff_c, coeff_mu

# kinked-arc panel breakpoints, refined geometrically (ratio 10) toward the kink
_ARC_FRACS = np.array([0.0] + [1e-8 * 10.0 ** k for k in range(8)] + [1.0])


class ReferenceProfile(RadialPowerProfile):
    """A smooth profile, which has no support boundary."""

    def support_radius(self):
        return None


@dataclass(frozen=True)
class TruncatedProfile(ReferenceProfile):
    """Profile cut to the support A_s + B_s |y-c|^2 > 0 (B_s < 0). It
    overrides only the oracle steps that depend on where the profile is
    smooth, so the inner-ball subtraction keeps its one copy."""

    support: tuple = (1.0, -1.0)  # (A_s, B_s)

    def value(self, points):
        pts = as_points(points, self.d)
        a_s, b_s = self.support
        inside = a_s + b_s * np.sum((pts - self.center) ** 2, axis=-1) > 0.0
        out = np.zeros(pts.shape[0])
        out[inside] = super().value(pts[inside])
        return out

    def support_radius(self):
        a_s, b_s = self.support
        return math.sqrt(-a_s / b_s)

    def split_radius(self, x):
        """Half the distance from x to the support sphere, capped at 1/2."""
        dist = abs(np.linalg.norm(x - self.center) - self.support_radius())
        if dist <= 0.0:
            raise ValueError("evaluation point lies on a smoothness feature of v")
        return 0.5 * min(1.0, dist)

    def sphere_mean(self, x, rhos):
        """Sphere mean; on a circle the support boundary crosses, each term is
        integrated over the supported arc (theta*, pi] by refined panels."""
        rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
        if self.d == 1:
            return super().sphere_mean(x, rhos)
        R = float(np.linalg.norm(x - self.center))
        a_s, b_s = self.support
        out = np.zeros_like(rhos)
        for i, rho in enumerate(rhos):
            # the circle's support is us + vs*cos(theta) > 0 with vs <= 0,
            # i.e. cos(theta) < t
            us = a_s + b_s * (R * R + rho * rho)
            vs = 2.0 * b_s * rho * R
            t = -us / vs if vs != 0.0 else (math.inf if us > 0.0 else -math.inf)
            if t >= 1.0:
                out[i] = super().sphere_mean(x, rho)[0]
            elif t > -1.0:
                edges = math.acos(t) + (math.pi - math.acos(t)) * _ARC_FRACS
                for coef, a, b, beta in self.terms:
                    u0, v0 = a + b * (R * R + rho * rho), 2.0 * b * rho * R

                    def arc(theta):
                        return coef * np.maximum(u0 + v0 * np.cos(theta), 0.0) ** beta
                    out[i] += _gauss_panels(arc, edges) / math.pi
        return out

    def outer_integral(self, x, r0, alpha):
        """Finite-support outer integral, split at the inner kink radius."""
        rad = self.support_radius()
        dist = float(np.linalg.norm(x - self.center))
        reach = dist + rad
        if reach <= r0:
            return 0.0
        kink = abs(dist - rad)

        def f(rho):
            return float(self.sphere_mean(x, np.array([rho]))[0]) * rho ** (-1.0 - alpha)

        val, _ = integrate.quad(f, r0, reach, points=[kink] if r0 < kink < reach else None,
                                epsabs=1e-13, epsrel=1e-10, limit=300)
        return val


def inverse_power_profile(d, power, center=None):
    """Globally smooth profile (1 + |y-c|^2)^(-power/2)."""
    c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    return ReferenceProfile(c, ((1.0, 1.0, 1.0, -power / 2.0),))


def truncated_profile(d, p, scale=1.0, center=None):
    """Compactly supported profile (1 - |scale*(y-c)|^2)_+^p."""
    c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    s2 = scale * scale
    return TruncatedProfile(c, ((1.0, 1.0, -s2, float(p)),), support=(1.0, -s2))


def tail_oracle(v, d, alpha, x):
    """Adaptive reference for c_{d,alpha} int_{|y|>1} v(y) |x-y|^(-d-alpha) dy.

    Brute-force counterpart of the solver's tail quadrature; |x| < 1 required.
    """
    x = as_points(x, d)[0]
    if np.linalg.norm(x) >= 1.0:
        raise ValueError("tail oracle needs an interior evaluation point")
    c = coeff_c(FracParams(d, alpha))
    if (isinstance(v, TruncatedProfile)
            and float(np.linalg.norm(v.center)) + v.support_radius() <= 1.0):
        return 0.0

    if d == 1:
        xi = float(x[0])

        def half(sign):
            # y = sign/s maps sign*(1, inf) to s in (0, 1)
            def f(s):
                if s <= 0.0:
                    return 0.0
                y = sign / s
                return float(v.value(np.array([y]))[0]) * abs(y - xi) ** (-1.0 - alpha) / (s * s)
            return integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-11, limit=400)[0]

        return c * (half(1.0) + half(-1.0))

    # d == 2: angular mean of v(rho sigma) |x - rho sigma|^(-2-alpha), doubled
    # until stable, then a compactified radial integral
    def ang_mean(rho):
        m, prev = 64, None
        while m <= 16384:
            theta = 2.0 * np.pi * np.arange(m) / m
            pts = rho * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            dist2 = np.sum((pts - x) ** 2, axis=1)
            val = float(np.mean(v.value(pts) * dist2 ** (-(2.0 + alpha) / 2.0)))
            if prev is not None and abs(val - prev) <= 1e-12 * (abs(val) + 1e-300):
                return val
            prev, m = val, 2 * m
        return prev

    def f(s):
        if s <= 0.0:
            return 0.0
        rho = 1.0 / s
        return ang_mean(rho) * rho / (s * s)

    val, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-10, limit=300)
    return c * 2.0 * np.pi * val


def scaled_rhs_ref(alpha, xs):
    """(u, f) of table4's u = (1-|2x|^2)_+^alpha at 1D points xs, f composed
    as the harness did before `oracles.case2_scaled` covered the exterior of
    the support: the closed form of case 2, scaled, inside |x| < 1/2, and
    outside it -c * int u(y)/|x-y|^(1+alpha) dy over the support, with the
    substitution y = sin(t)/2 that turns u into cos(t)^(2*alpha) and removes
    the endpoint singularity of the integrand (200 Gauss points)."""
    xs = as_points(xs, 1)[:, 0]
    u, _ = case2(1, alpha, alpha, as_points(xs, 1) * 2.0, f_required=False)
    out = np.empty_like(xs)
    inside = np.abs(xs) < 0.5
    if np.any(inside):
        out[inside] = 2.0 ** alpha * case2(1, alpha, alpha, as_points(xs[inside], 1) * 2.0)[1]
    if np.any(np.logical_not(inside)):
        nodes, weights = gauss_legendre_01(200)
        t = -np.pi / 2.0 + np.pi * nodes
        w = np.pi * weights * 0.5 * np.cos(t) * np.cos(t) ** (2.0 * alpha)
        y = 0.5 * np.sin(t)
        c = coeff_c(FracParams(1, alpha))
        xe = xs[np.logical_not(inside)]
        out[np.logical_not(inside)] = -c * np.sum(w / np.abs(xe[:, None] - y) ** (1.0 + alpha),
                                                  axis=1)
    return u, out


def nodal_operator_ref(ps, basis, rows, coeff_map=None, out=None):
    """The nodal operators of each block of `rows`, stacked in order, as
    `linsys.nodal_operator` built them before it returned the coefficient
    map alone: one map, then each block multiplied on its own, into `out`
    when it is passed. The map is `coeff_map` when it is passed, otherwise
    one solved for through an LU of a copy of A_phi, whatever the sign of
    beta, so it shares no factorization rule with `linsys`."""
    n_int = ps.n_interior
    if coeff_map is None:
        rhs = np.zeros((ps.n_total, n_int))
        rhs[:n_int, :] = np.eye(n_int)
        coeff_map = sla.lu_solve(sla.lu_factor(phi_block_ref(basis, ps.points)), rhs)
    blocks = [np.asarray(w, dtype=float) for w in rows]
    shape = (sum(w.shape[0] for w in blocks), n_int)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, the stacked operators {shape}")
    start = 0
    for w in blocks:
        np.matmul(w, coeff_map, out=out[start:start + w.shape[0]])
        start += w.shape[0]
    return out


# Out-of-place references. Each expression below is the one the solver used
# before it moved to in-place updates; the solver must match it bit for bit.

def phi_block_ref(basis, x):
    r2, _ = _sq_dist(basis, x)
    return (basis.eps ** 2 + r2) ** basis.beta


def psi_block_ref(basis, x):
    d, alpha = basis.params.d, basis.params.alpha
    r2, _ = _sq_dist(basis, x)
    return (basis.eps ** 2 + r2) ** (-(alpha + d) / 2.0)


def frac_lap_block_ref(basis, x):
    mu = coeff_mu(basis.params)
    return basis.eps ** basis.params.alpha * mu * psi_block_ref(basis, x)


def classical_lap_block_ref(basis, x):
    d = basis.params.d
    b = basis.beta
    eps2 = basis.eps ** 2
    r2, _ = _sq_dist(basis, x)
    w = eps2 + r2
    coef1 = 2.0 * d * b + 4.0 * b * (b - 1.0)
    coef2 = 4.0 * b * (b - 1.0)
    return -coef1 * w ** (b - 1.0) + coef2 * eps2 * w ** (b - 2.0)


def grad_blocks_ref(basis, x):
    b = basis.beta
    r2, pts = _sq_dist(basis, x)
    common = 2.0 * b * (basis.eps ** 2 + r2) ** (b - 1.0)
    return [common * (pts[:, k, None] - basis.centers[None, :, k])
            for k in range(basis.params.d)]


def gauss_legendre_01_ref(K):
    """The Gauss rule on (0,1) as (nodes, weights), with the Legendre
    recurrence written out twice, once in the Newton loop and once for the
    weights: the form `quadrature.gauss_legendre_01` had before it shared one
    recurrence between them."""
    K = int(K)
    if not 1 <= K <= 512:
        raise ValueError("Gauss rule order must satisfy 1 <= K <= 512")

    # initial guesses: Chebyshev points with the standard O(1/K) correction
    k = np.arange(K)
    x = np.cos(np.pi * (k + 0.75) / (K + 0.5))

    for _ in range(100):
        # evaluate P_K and P_{K-1} by the recurrence
        p_prev = np.ones_like(x)
        p = x.copy()
        for n in range(1, K):
            p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        dp = K * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Gauss-Legendre node iteration failed to converge")

    # recompute derivative at the converged nodes for the weights
    p_prev = np.ones_like(x)
    p = x.copy()
    for n in range(1, K):
        p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
    dp = K * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    order = np.argsort(x)
    x, w = x[order], w[order]
    return (x + 1.0) / 2.0, w / 2.0


def tail_factors_ref(points, centers, eps, beta, p, K, M):
    """The factors `exterior._tail_factors` builds, from the same arguments."""
    points, centers = as_points(points, p.d), as_points(centers, p.d)
    nodes, weights = gauss_legendre_01(K)
    gamma = p.alpha - 1.0 - 2.0 * beta
    if p.d == 1:
        s = nodes
        w = weights * s ** gamma
        x, xc = points[:, 0], centers[:, 0]
        b_r = (1.0 - x[:, None] * s[None, :]) ** (-1.0 - p.alpha)
        b_l = (1.0 + x[:, None] * s[None, :]) ** (-1.0 - p.alpha)
        c_r = ((s[:, None] * eps) ** 2 + (1.0 - xc[None, :] * s[:, None]) ** 2) ** beta
        c_l = ((s[:, None] * eps) ** 2 + (1.0 + xc[None, :] * s[:, None]) ** 2) ** beta
        return TailFactors(b_r, c_r, w, coeff_c(p), b_alt=b_l, c_alt=c_l)
    angles, ang_weight = periodic_rule(M)
    s = np.repeat(nodes, M)
    w = np.repeat(weights, M) * s ** gamma * ang_weight
    theta = np.tile(angles, K)
    sig = np.column_stack([np.cos(theta), np.sin(theta)])

    def sqd(pts):
        d1 = sig[None, :, 0] - pts[:, 0, None] * s[None, :]
        d2 = sig[None, :, 1] - pts[:, 1, None] * s[None, :]
        return d1 * d1 + d2 * d2
    b = sqd(points) ** (-(p.alpha / 2.0 + 1.0))
    c = ((s[None, :] * eps) ** 2 + sqd(centers)) ** beta
    return TailFactors(b, c.T, w, coeff_c(p))


def tail_matrix_ref(tf):
    """The full matrix of a `TailFactors`."""
    bw = tf.b * tf.weights[None, :]
    mat = bw @ tf.c
    if tf.b_alt is not None:
        mat = mat + (tf.b_alt * tf.weights[None, :]) @ tf.c_alt
    return tf.scale * mat


def one_norm_ref(mat):
    """Largest absolute column sum."""
    return float(np.max(np.abs(mat).sum(axis=0)))


def cholesky_cond_ref(mat):
    """1 / pocon of the upper Cholesky factor of a copy of the symmetric
    positive definite mat, with its 1-norm from one_norm_ref."""
    potrf, pocon = get_lapack_funcs(("potrf", "pocon"), (mat,))
    c, info = potrf(mat)
    if info != 0:
        raise np.linalg.LinAlgError(f"potrf info {info}")
    rcond, info = pocon(c, one_norm_ref(mat))
    if info != 0:
        raise np.linalg.LinAlgError(f"pocon info {info}")
    return 1.0 / rcond


def phi_solve_ref(basis, rhs):
    """A_phi^{-1} rhs by the rule of `linsys._phi_factor`, on copies: the
    upper Cholesky factor of A_phi where beta < 0 and potrf succeeds, an LU
    otherwise."""
    mat = phi_block_ref(basis, basis.centers)
    if basis.beta < 0:
        c, info = get_lapack_funcs("potrf", (mat,))(mat)
        if info == 0:
            return sla.cho_solve((c, False), rhs)
    return sla.lu_solve(sla.lu_factor(mat), rhs)


def write_field_ref(path, points, values):
    """One x1,x2,value CSV row per point; floats are written via repr for
    bit-stable reruns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "value"])
        for row, v in zip(points, values):
            writer.writerow([repr(float(row[0])), repr(float(row[1])), repr(float(v))])


def write_snapshots_ref(out_dir, ps, times, fields, prefix="field"):
    """One x1,x2,value CSV per snapshot time plus a manifest listing them.

    Boundary nodes are appended with their zero value so every file is a
    complete field.
    """
    names = [f"{prefix}_t{t:.6f}.csv" for t in times]
    if len(set(names)) < len(names):
        raise ValueError("snapshot times that agree to six decimals would share a file")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pad = ps.n_total - ps.n_interior
    for name, u in zip(names, fields):
        full = np.concatenate([np.asarray(u, dtype=float), np.zeros(pad)])
        write_field_ref(out / name, ps.points, full)
    with open(out / f"{prefix}_manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "file"])
        for t, name in zip(times, names):
            writer.writerow([f"{t:.6f}", name])
    return names


def write_anisotropy_ref(out, times, fields, ratios):
    """anisotropy.csv of the single-vortex run: time, max|theta|, ratio."""
    with open(Path(out) / "anisotropy.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "peak", "ratio"])
        for t, f, r in zip(times, fields, ratios):
            w.writerow([f"{t:.6f}", repr(float(np.max(np.abs(f)))), repr(r)])
