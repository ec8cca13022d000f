"""Tail integrals of radial profiles over the exterior of the unit domain.

The fractional-Laplacian rows need c_{d,alpha} int_{|y|>1} phi_j(y) |x_i-y|^(-d-alpha) dy
for every equation point x_i. The substitution y -> 1/s maps each exterior
ray onto (0,1] and splits the integrand into an x_i-only factor and an
x_j-only factor per quadrature node, so the whole matrix is a product of
two thin factors and never costs more than O(N*K) memory per side.
"""

from dataclasses import dataclass

import numpy as np

from fracrbf.quadrature import gauss_legendre_01, periodic_rule
from fracrbf.specialfun import coeff_c

__all__ = [
    "GmqProfile",
    "TailFactors",
    "tail_factors_at",
    "exterior_data_correction",
]


@dataclass(frozen=True)
class GmqProfile:
    """Radial profile amplitude*(eps^2+|x-center|^2)^exponent used as
    exterior data."""

    center: np.ndarray
    eps: float
    exponent: float
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))

    def value(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = np.sum((pts - self.center) ** 2, axis=1)
        return self.amplitude * (self.eps ** 2 + r2) ** self.exponent


@dataclass(frozen=True)
class TailFactors:
    """Factored tail matrix. 1D: scale*(b @ diag(weights) @ c + b_alt @
    diag(weights) @ c_alt); 2D: scale*(b @ diag(weights) @ c) with the
    radial weight, Jacobian power and angle weight combined into weights."""

    dim: int
    b: np.ndarray
    c: np.ndarray
    weights: np.ndarray
    scale: float
    b_alt: np.ndarray | None = None
    c_alt: np.ndarray | None = None

    def assemble(self):
        bw = self.b * self.weights[None, :]
        mat = bw @ self.c
        if self.b_alt is not None:
            mat = mat + (self.b_alt * self.weights[None, :]) @ self.c_alt
        return self.scale * mat


def _check_inside(points):
    r = np.sqrt(np.sum(points * points, axis=1))
    if np.any(r >= 1.0):
        raise ValueError("tail rows exist only at points strictly inside the domain")


def _pole_factors_1d(x, s):
    # (1 -+ x_i s)^(-1-alpha) halves enter with the alpha power applied later
    right = 1.0 - x[:, None] * s[None, :]
    left = 1.0 + x[:, None] * s[None, :]
    return right, left


def _factors_1d(points, centers, eps, beta, alpha, K):
    """Factor pieces of int_{|y|>1} (eps^2+(y-c)^2)^beta |x-y|^(-1-alpha) dy."""
    rule = gauss_legendre_01(K)
    s = rule.nodes
    gamma = alpha - 1.0 - 2.0 * beta
    w = rule.weights * s ** gamma
    x = points[:, 0]
    xc = centers[:, 0]
    b_r, b_l = _pole_factors_1d(x, s)
    b_r = b_r ** (-1.0 - alpha)
    b_l = b_l ** (-1.0 - alpha)
    c_r = ((s[:, None] * eps) ** 2 + (1.0 - xc[None, :] * s[:, None]) ** 2) ** beta
    c_l = ((s[:, None] * eps) ** 2 + (1.0 + xc[None, :] * s[:, None]) ** 2) ** beta
    return b_r, c_r, b_l, c_l, w


def _factors_2d(points, centers, eps, beta, alpha, K, M):
    """Same split for the disk: nodes are the (s_k, theta_m) tensor grid."""
    rule = gauss_legendre_01(K)
    ang = periodic_rule(M)
    s = np.repeat(rule.nodes, M)
    gamma = alpha - 1.0 - 2.0 * beta
    w = np.repeat(rule.weights, M) * s ** gamma * ang.weight
    theta = np.tile(ang.angles, K)
    sig = np.column_stack([np.cos(theta), np.sin(theta)])
    # |sigma - s x|^2 for evaluation points and centers
    def sqd(pts):
        d1 = sig[None, :, 0] - pts[:, 0, None] * s[None, :]
        d2 = sig[None, :, 1] - pts[:, 1, None] * s[None, :]
        return d1 * d1 + d2 * d2
    b = sqd(points) ** (-(alpha / 2.0 + 1.0))
    c = ((s[None, :] * eps) ** 2 + sqd(centers)) ** beta
    return b, c.T, w


def tail_factors_at(points, basis, K=10, M=64):
    """Tail factors rowed by arbitrary points strictly inside the unit
    domain; columns cover all N centers."""
    p = basis.params
    points = np.asarray(points, dtype=float).reshape(-1, p.d)
    _check_inside(points)
    centers = basis.centers
    beta = basis.beta
    if p.d == 1:
        b_r, c_r, b_l, c_l, w = _factors_1d(points, centers, basis.eps, beta, p.alpha, K)
        return TailFactors(1, b_r, c_r, w, coeff_c(p), b_alt=b_l, c_alt=c_l)
    b, c, w = _factors_2d(points, centers, basis.eps, beta, p.alpha, K, M)
    return TailFactors(2, b, c, w, coeff_c(p))


def exterior_data_correction(g, ps, p, K=10, M=64, points=None):
    """Tail values of the exterior datum g at the equation points (or at
    explicitly given points strictly inside the domain).

    Same change-of-variable quadrature as the basis tails, generalized to
    the profile's own exponent: the leftover power s^(alpha-1-2*exponent)
    joins the weights. Spectrally accurate when that power is an integer
    (all the shipped test problems); otherwise accuracy degrades to
    algebraic in K and a larger K is the remedy.
    """
    if 2.0 * g.exponent >= p.alpha:
        raise ValueError("exterior datum must decay: need 2*exponent < alpha")
    points = ps.interior if points is None else np.asarray(points, dtype=float).reshape(-1, p.d)
    _check_inside(points)
    ctr = np.atleast_2d(g.center)
    if p.d == 1:
        b_r, c_r, b_l, c_l, w = _factors_1d(points, ctr, g.eps, g.exponent, p.alpha, K)
        vals = (b_r * (w * c_r[:, 0])[None, :]).sum(axis=1)
        vals = vals + (b_l * (w * c_l[:, 0])[None, :]).sum(axis=1)
    else:
        b, c, w = _factors_2d(points, ctr, g.eps, g.exponent, p.alpha, K, M)
        vals = (b * (w * c[:, 0])[None, :]).sum(axis=1)
    return coeff_c(p) * g.amplitude * vals
