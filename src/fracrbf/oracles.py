"""Closed-form reference solutions: the (u, f) pairs that the presets and
the CLI measure errors against, as arrays of one value per point.
`fracrbf.checks` checks them by direct hypersingular integration."""

import math

import numpy as np

from fracrbf.geometry import as_points
from fracrbf.specialfun import FracParams, gamma_fn, gauss_2f1

__all__ = ["case1", "case2", "case2_scaled"]


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

    By the scaling property, f(x) = scale^alpha * f_case2(scale*x), valid
    only where |scale*x| < 1; elsewhere it raises a domain error.
    """
    scale = float(scale)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    u, f = case2(d, alpha, p, as_points(x, d) * scale)
    return u, scale ** alpha * f
