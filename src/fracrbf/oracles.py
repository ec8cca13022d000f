"""Closed-form reference solutions: the (u, f) pairs that the presets and
the CLI measure errors against, as arrays of one value per point, and the
smooth case's exterior datum. `fracrbf.checks` and the tests check them by
direct hypersingular integration."""

import math

import numpy as np

from fracrbf.exterior import GmqProfile
from fracrbf.geometry import as_points
from fracrbf.quadrature import gauss_legendre_01
from fracrbf.specialfun import FracParams, coeff_c, gamma_fn, gauss_2f1

__all__ = ["case1", "case1_datum", "case2", "case2_scaled"]


def _radii2(x, d):
    pts = as_points(x, d)
    return np.sum(pts * pts, axis=-1)


def case1(d, alpha, x, f_required=True):
    """Globally smooth benchmark: u = (1+|x|^2)^(-(d+1)/2) with closed-form f.

    f(x) = Gamma(d+alpha)/Gamma(d) (1+|x|^2)^(-(d+alpha)/2)
           * 2F1((d+alpha)/2, -(alpha+1)/2; d/2; |x|^2/(1+|x|^2)),

    validated against `checks.hypersingular_oracle` and, at alpha=1, against
    the elementary Poisson-kernel derivative (d-|x|^2)(1+|x|^2)^(-(d+3)/2).
    The hypergeometric argument stays in [0, 1/2).
    """
    FracParams(d, alpha)
    r2 = _radii2(x, d)
    u = (1.0 + r2) ** (-(d + 1.0) / 2.0)
    if not f_required:
        return u, None
    if np.any(r2 >= 1.0):
        raise ValueError("closed-form forcing of case 1 needs |x| < 1")
    pref = gamma_fn(d + alpha) / gamma_fn(d)
    f = pref * ((1.0 + r2) ** (-(d + alpha) / 2.0)
                * gauss_2f1((d + alpha) / 2.0, -(alpha + 1.0) / 2.0, d / 2.0, r2 / (1.0 + r2)))
    return u, f


def case1_datum(d):
    """Case 1's u outside the domain, as the exterior datum the collocation
    rows and the residual take through the tail correction."""
    return GmqProfile(np.zeros(d), 1.0, -(d + 1) / 2.0)


def case2(d, alpha, p, x, f_required=True):
    """Compact-support benchmark: u = (1-|x|^2)_+^p with closed-form f."""
    FracParams(d, alpha)
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ValueError("exponent p must be positive and finite")
    arg = -alpha / 2.0 + p + 1.0
    if arg <= 0.0 and arg == math.floor(arg):
        raise ValueError("gamma pole in the case 2 constant")
    r2 = _radii2(x, d)
    u = np.where(r2 < 1.0, np.abs(1.0 - r2) ** p, 0.0)
    if not f_required:
        return u, None
    if np.any(r2 >= 1.0):
        raise ValueError("closed-form forcing of case 2 needs |x| < 1")
    pref = (2.0 ** alpha * gamma_fn((alpha + d) / 2.0) * gamma_fn(p + 1.0)
            / (gamma_fn(d / 2.0) * gamma_fn(arg)))
    f = pref * gauss_2f1((alpha + d) / 2.0, -p + alpha / 2.0, d / 2.0, r2)
    return u, f


def case2_scaled(d, alpha, p, scale, x):
    """Interior-singularity benchmark: u(x) = (1-|scale*x|^2)_+^p.

    Inside the support, by the scaling property, f(x) = scale^alpha *
    f_case2(scale*x). Outside it f(x) = -c int u(y)/|x-y|^(d+alpha) dy: on
    the interval by 200 Gauss points after y = sin(t)/scale, which turns u
    into cos(t)^(2p) and removes the endpoint singularity of the integrand;
    on the disk it raises a domain error.
    """
    scale = float(scale)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    pts = as_points(x, d)
    scaled = pts * scale
    inside = _radii2(scaled, d) < 1.0
    if d != 1 or np.all(inside):
        u, f = case2(d, alpha, p, scaled)
        return u, scale ** alpha * f
    u, _ = case2(1, alpha, p, scaled, f_required=False)
    f = np.empty_like(u)
    f[inside] = scale ** alpha * case2(1, alpha, p, scaled[inside])[1]
    nodes, weights = gauss_legendre_01(200)
    t = -np.pi / 2.0 + np.pi * nodes
    w = np.pi * weights / scale * np.cos(t) * np.cos(t) ** (2.0 * p)
    y = np.sin(t) / scale
    f[~inside] = -coeff_c(FracParams(1, alpha)) * np.sum(
        w / np.abs(pts[~inside] - y) ** (1.0 + alpha), axis=1)
    return u, f
