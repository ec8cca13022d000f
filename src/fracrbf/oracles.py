"""Independent reference values: closed-form solutions and brute-force integrals.

This module never calls the solver-side kernels. The hypersingular oracle
evaluates the defining singular integral of the fractional Laplacian
directly (singularity subtraction inside a small ball, compactified
adaptive quadrature outside), so agreement with the closed-form identities
used by the solver is a genuine two-route check. The compactly supported
profiles and the exterior-tail reference, which only the tests use, live in
tests/reference.py.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from fracrbf.geometry import as_points
from fracrbf.specialfun import FracParams, coeff_c, gamma_fn, gauss_2f1
from fracrbf.quadrature import gauss_legendre_01

__all__ = [
    "RadialPowerProfile",
    "gmq_profile",
    "gmq_shifted_profile",
    "hypersingular_oracle",
    "case1",
    "case2",
    "case2_scaled",
]


# ---------------------------------------------------------------------------
# profile algebra


@dataclass(frozen=True)
class RadialPowerProfile:
    """Smooth radial function v(y) = sum_k a_k (A_k + B_k |y-c|^2)^beta_k.

    The family is closed under the Laplacian, which is what makes exact
    Taylor coefficients available to the singularity subtraction. The
    oracle asks the profile for the three steps that depend on where it is
    smooth: `split_radius`, `sphere_mean` and `outer_integral`.
    """

    center: np.ndarray
    terms: tuple  # of (coef, A, B, beta)

    @property
    def d(self):
        return self.center.shape[0]

    def value(self, points):
        pts = as_points(points, self.d)
        r2 = np.sum((pts - self.center) ** 2, axis=-1)
        out = np.zeros_like(r2)
        for coef, a, b, beta in self.terms:
            out += coef * (a + b * r2) ** beta
        return out

    def laplacian(self):
        """Exact Laplacian, valid wherever the profile is smooth."""
        d = self.d
        new_terms = []
        for coef, a, b, beta in self.terms:
            if beta == 0.0 or coef == 0.0:
                continue
            new_terms.append((coef * b * (2.0 * d * beta + 4.0 * beta * (beta - 1.0)),
                              a, b, beta - 1.0))
            if beta != 1.0:
                new_terms.append((-coef * 4.0 * a * b * beta * (beta - 1.0),
                                  a, b, beta - 2.0))
        return dataclasses.replace(self, terms=tuple(new_terms))

    def split_radius(self, x):
        """Radius splitting the oracle's inner ball from its outer integral."""
        return 0.5

    def sphere_mean(self, x, rhos):
        """Mean of the profile over the sphere of radius rho around x."""
        rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
        if self.d == 1:
            up = self.value(x[None, :] + rhos[:, None])
            dn = self.value(x[None, :] - rhos[:, None])
            return 0.5 * (up + dn)
        R = float(np.linalg.norm(x - self.center))
        out = np.zeros_like(rhos)
        for i, rho in enumerate(rhos):
            for coef, a, b, beta in self.terms:
                out[i] += _circle_mean_term(coef, a, b, beta, R, rho)
        return out

    def outer_integral(self, x, r0, alpha):
        """Integral over (r0, inf) of the sphere mean times rho^(-1-alpha)."""
        return sum(_outer_smooth_term(term, alpha, self.center, x, r0) for term in self.terms)


def gmq_profile(d, alpha, eps, center=None):
    """Basis profile (eps^2 + |y-c|^2)^((alpha-d)/2)."""
    c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    return RadialPowerProfile(c, ((1.0, eps * eps, 1.0, (alpha - d) / 2.0),))


def gmq_shifted_profile(d, alpha, eps, center=None):
    """Alternative-path profile (eps^2 + |y-c|^2)^((alpha-2-d)/2)."""
    c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    return RadialPowerProfile(c, ((1.0, eps * eps, 1.0, (alpha - 2.0 - d) / 2.0),))


# ---------------------------------------------------------------------------
# composite Gauss panels and spherical means

_GAUSS32 = gauss_legendre_01(32)


def _gauss_panels(f, edges):
    """Integrate a vectorized f over consecutive [edges] with 32-pt Gauss."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    width = hi - lo
    x = (lo[:, None] + width[:, None] * _GAUSS32.nodes[None, :]).ravel()
    w = (width[:, None] * _GAUSS32.weights[None, :]).ravel()
    return float(np.dot(f(x), w))


def _circle_mean_term(coef, a, b, beta, R, rho):
    """Angular mean of one smooth 2D term over the circle {x + rho*sigma},
    R the distance from x to the profile center: an equispaced rule
    doubled until stable."""
    u0 = a + b * (R * R + rho * rho)
    v0 = 2.0 * b * rho * R
    m = 64
    prev = None
    while m <= 8192:
        theta = 2.0 * np.pi * np.arange(m) / m
        val = coef * float(np.mean((u0 + v0 * np.cos(theta)) ** beta))
        if prev is not None and abs(val - prev) <= 1e-13 * (abs(val) + 1e-300):
            return val
        prev = val
        m *= 2
    return prev


# ---------------------------------------------------------------------------
# the hypersingular oracle


def _outer_smooth_term(term, alpha, profile_center, x, r0):
    """Integral over (r0, inf) of the term's sphere mean times rho^(-1-alpha).

    Compactified with rho = r0/s; the integrand is fs(s) * s^gamma with
    gamma = alpha - 1 - 2*beta and fs smooth, handled by weighted (QAWS)
    adaptive quadrature.
    """
    coef, a, b, beta = term
    gamma = alpha - 1.0 - 2.0 * beta
    if gamma <= -1.0:
        raise ValueError("profile decays too slowly for a finite tail integral")
    term_profile = RadialPowerProfile(profile_center, (term,))

    def fs(s):
        if s <= 0.0:
            return coef * b ** beta * r0 ** (2.0 * beta)
        rho = r0 / s
        return float(term_profile.sphere_mean(x, np.array([rho]))[0]) * s ** (2.0 * beta)

    val, _ = integrate.quad(fs, 0.0, 1.0, weight="alg", wvar=(gamma, 0.0),
                            epsabs=1e-13, epsrel=1e-11, limit=200)
    return r0 ** (-alpha) * val


def hypersingular_oracle(v, d, alpha, x):
    """Directly evaluate c_{d,alpha} PV int (v(x)-v(y)) / |x-y|^(d+alpha) dy.

    The integral is written radially through sphere means, split at the
    profile's split radius r0: inside, the mean-value expansion
    M(rho) = v(x) + a2 rho^2 + a4 rho^4 + ... (a2, a4 from the profile's
    exact iterated Laplacians) is subtracted so the integrand is
    O(rho^(5-alpha)) and free of cancellation blow-up; outside, the
    profile's own outer integral takes over.
    """
    x = as_points(x, d)[0]
    params = FracParams(d, alpha)
    c = coeff_c(params)
    omega = 2.0 if d == 1 else 2.0 * math.pi

    r0 = v.split_radius(x)
    vx = float(v.value(x)[0])
    lap1 = v.laplacian()
    lap2 = lap1.laplacian()
    a2 = float(lap1.value(x)[0]) / (2.0 * d)
    a4 = float(lap2.value(x)[0]) / (8.0 * d * (d + 2.0))

    # inner ball: subtracted integrand, panels refined toward 0 but not
    # entering the region where floating-point cancellation noise would
    # dominate rho^(-1-alpha)
    def inner_f(rho):
        mean = v.sphere_mean(x, rho)
        return (vx - mean + a2 * rho ** 2 + a4 * rho ** 4) * rho ** (-1.0 - alpha)

    edges = r0 * np.array([1e-3, 1e-2, 0.1, 0.4, 1.0])
    inner = _gauss_panels(inner_f, edges)
    inner -= a2 * r0 ** (2.0 - alpha) / (2.0 - alpha)
    inner -= a4 * r0 ** (4.0 - alpha) / (4.0 - alpha)

    # outer part: v(x) tail minus the mean integral
    outer = vx * r0 ** (-alpha) / alpha - v.outer_integral(x, r0, alpha)

    return c * omega * (inner + outer)


# ---------------------------------------------------------------------------
# closed-form reference solutions


def _radii2(x, d):
    pts = as_points(x, d)
    return np.sum(pts * pts, axis=-1)


def case1(d, alpha, x, f_required=True):
    """Globally smooth benchmark: u = (1+|x|^2)^(-(d+1)/2) with closed-form f.

    f(x) = Gamma(d+alpha)/Gamma(d) (1+|x|^2)^(-(d+alpha)/2)
           * 2F1((d+alpha)/2, -(alpha+1)/2; d/2; |x|^2/(1+|x|^2)),

    validated against the hypersingular oracle and, at alpha=1, against the
    elementary Poisson-kernel derivative (d-|x|^2)(1+|x|^2)^(-(d+3)/2).
    The hypergeometric argument stays in [0, 1/2).
    """
    FracParams(d, alpha)
    r2 = _radii2(x, d)
    u = (1.0 + r2) ** (-(d + 1.0) / 2.0)
    if not f_required:
        return _match_shape(u, x), None
    if np.any(r2 >= 1.0):
        raise ValueError("closed-form forcing of case 1 needs |x| < 1")
    pref = gamma_fn(d + alpha) / gamma_fn(d)
    f = pref * ((1.0 + r2) ** (-(d + alpha) / 2.0)
                * gauss_2f1((d + alpha) / 2.0, -(alpha + 1.0) / 2.0, d / 2.0, r2 / (1.0 + r2)))
    return _match_shape(u, x), _match_shape(f, x)


def case2(d, alpha, p, x, f_required=True):
    """Compact-support benchmark: u = (1-|x|^2)_+^p with closed-form f."""
    FracParams(d, alpha)
    p = float(p)
    if p <= 0.0:
        raise ValueError("exponent p must be positive")
    arg = -alpha / 2.0 + p + 1.0
    if arg <= 0.0 and arg == math.floor(arg):
        raise ValueError("gamma pole in the case 2 constant")
    r2 = _radii2(x, d)
    u = np.where(r2 < 1.0, np.abs(1.0 - r2) ** p, 0.0)
    if not f_required:
        return _match_shape(u, x), None
    if np.any(r2 >= 1.0):
        raise ValueError("closed-form forcing of case 2 needs |x| < 1")
    pref = (2.0 ** alpha * gamma_fn((alpha + d) / 2.0) * gamma_fn(p + 1.0)
            / (gamma_fn(d / 2.0) * gamma_fn(arg)))
    f = pref * gauss_2f1((alpha + d) / 2.0, -p + alpha / 2.0, d / 2.0, r2)
    return _match_shape(u, x), _match_shape(f, x)


def case2_scaled(d, alpha, p, scale, x):
    """Interior-singularity benchmark: u(x) = (1-|scale*x|^2)_+^p.

    By the scaling property, f(x) = scale^alpha * f_case2(scale*x), valid
    only where |scale*x| < 1; elsewhere it raises a domain error.
    """
    scale = float(scale)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    u, f = case2(d, alpha, p, as_points(x, d) * scale)
    return (_match_shape(np.atleast_1d(u), x),
            _match_shape(scale ** alpha * np.atleast_1d(f), x))


def _match_shape(values, x):
    values = np.atleast_1d(values)
    if np.ndim(x) == 0 or (np.ndim(x) == 1 and values.shape[0] == 1):
        return float(values[0])
    return values
