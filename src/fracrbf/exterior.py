"""Tail integrals of radial profiles over the exterior of the unit domain.

The fractional-Laplacian rows need c_{d,alpha} int_{|y|>1} phi_j(y) |x_i-y|^(-d-alpha) dy
for every equation point x_i. The substitution y -> 1/s maps each exterior
ray onto (0,1] and splits the integrand into an x_i-only factor and an
x_j-only factor per quadrature node, so the whole matrix is a product of
two thin factors and never costs more than O(N*K) memory per side.
"""

from dataclasses import dataclass

import numpy as np

from fracrbf.geometry import as_points
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
    """Radial profile (eps^2+|x-center|^2)^exponent used as exterior data."""

    center: np.ndarray
    eps: float
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))

    def value(self, points):
        pts = as_points(points, self.center.shape[0])
        r2 = np.sum((pts - self.center) ** 2, axis=1)
        return (self.eps ** 2 + r2) ** self.exponent


# points per block in which _factors_2d fills b and c: elementwise work in
# blocks has the bits of the whole-array expressions
_ROWS = 128


@dataclass
class TailFactors:
    """Factored tail matrix. 1D: scale*(b @ diag(weights) @ c + b_alt @
    diag(weights) @ c_alt); 2D: scale*(b @ diag(weights) @ c) with the
    radial weight, Jacobian power and angle weight combined into weights."""

    b: np.ndarray
    c: np.ndarray
    weights: np.ndarray
    scale: float
    b_alt: np.ndarray | None = None
    c_alt: np.ndarray | None = None

    def assemble(self, out):
        """The tail matrix, written into the caller's (rows x centers) buffer
        `out`. It consumes the factors: b (and b_alt) are weighted in place,
        with the bits of the out-of-place product, and `weights` is set to
        None, so a later `apply` or `assemble` fails instead of weighting twice."""
        w, self.weights = self.weights, None
        mat = np.matmul(np.multiply(self.b, w, out=self.b), self.c, out=out)
        if self.b_alt is not None:
            mat += np.multiply(self.b_alt, w, out=self.b_alt) @ self.c_alt
        return np.multiply(mat, self.scale, out=mat)

    def apply(self, v):
        """The tail matrix times v, row by row without forming the matrix."""
        v = np.asarray(v, dtype=float)
        out = (self.b * (self.weights * (self.c @ v))[None, :]).sum(axis=1)
        if self.b_alt is not None:
            out = out + (self.b_alt * (self.weights * (self.c_alt @ v))[None, :]).sum(axis=1)
        return self.scale * out


def _factors_1d(points, centers, eps, beta, alpha, K):
    """Factor pieces of int_{|y|>1} (eps^2+(y-c)^2)^beta |x-y|^(-1-alpha) dy."""
    s, weights = gauss_legendre_01(K)
    gamma = alpha - 1.0 - 2.0 * beta
    w = weights * s ** gamma
    x = points[:, 0]
    xc = centers[:, 0]
    def ray(sign):
        """b and c of the ray toward sign*infinity: (1 - sign*x*s)^(-1-alpha)."""
        return ((1.0 - sign * x[:, None] * s[None, :]) ** (-1.0 - alpha),
                ((s[:, None] * eps) ** 2 + (1.0 - sign * xc[None, :] * s[:, None]) ** 2) ** beta)
    return (*ray(1.0), *ray(-1.0), w)


def _factors_2d(points, centers, eps, beta, alpha, K, M):
    """Same split for the disk: nodes are the (s_k, theta_m) tensor grid."""
    nodes, weights = gauss_legendre_01(K)
    angles, ang_weight = periodic_rule(M)
    s = np.repeat(nodes, M)
    gamma = alpha - 1.0 - 2.0 * beta
    w = np.repeat(weights, M) * s ** gamma * ang_weight
    theta = np.tile(angles, K)
    sig = (np.cos(theta), np.sin(theta))

    def sqd(pts):
        """|sigma - s x|^2, one (points x nodes) array filled _ROWS points at a
        time, so the second coordinate's term needs only a block-sized buffer"""
        out = np.empty((pts.shape[0], s.size))
        tmp = np.empty((min(_ROWS, pts.shape[0]), s.size))
        for i in range(0, pts.shape[0], _ROWS):
            block = out[i:i + _ROWS]
            d = (block, tmp[:block.shape[0]])
            for dk, xk, sig_k in zip(d, pts[i:i + _ROWS].T, sig):
                np.multiply(xk[:, None], s[None, :], out=dk)
                np.subtract(sig_k[None, :], dk, out=dk)
                dk *= dk
            np.add(d[0], d[1], out=block)
        return out
    b = sqd(points)
    b **= -(alpha / 2.0 + 1.0)
    c = sqd(centers)
    c += (s[None, :] * eps) ** 2
    c **= beta
    return b, c.T, w


def _tail_factors(points, centers, eps, beta, p, K, M):
    """Tail factors of the profiles (eps^2+|y-center|^2)^beta, rowed by
    points strictly inside the unit domain."""
    points, centers = as_points(points, p.d), as_points(centers, p.d)
    if np.any(np.sqrt(np.sum(points * points, axis=1)) >= 1.0):
        raise ValueError("tail rows exist only at points strictly inside the domain")
    if p.d == 1:
        b_r, c_r, b_l, c_l, w = _factors_1d(points, centers, eps, beta, p.alpha, K)
        return TailFactors(b_r, c_r, w, coeff_c(p), b_alt=b_l, c_alt=c_l)
    b, c, w = _factors_2d(points, centers, eps, beta, p.alpha, K, M)
    return TailFactors(b, c, w, coeff_c(p))


def tail_factors_at(points, basis):
    """Tail factors of basis under its rule, rowed by points strictly inside the domain."""
    return _tail_factors(points, basis.centers, basis.eps, basis.beta, basis.params,
                         basis.K, basis.M)


def exterior_data_correction(g, points, basis):
    """Tail values of the exterior datum g at points strictly inside the
    domain, under the (d, alpha) and the tail rule of basis.

    Same change-of-variable quadrature as the basis tails, generalized to
    the profile's own exponent: the leftover power s^(alpha-1-2*exponent)
    joins the weights. Spectrally accurate when that power is an integer
    (all the shipped test problems); otherwise accuracy degrades to
    algebraic in K and a larger K is the remedy.
    """
    p = basis.params
    if 2.0 * g.exponent >= p.alpha:
        raise ValueError("exterior datum must decay: need 2*exponent < alpha")
    return _tail_factors(points, g.center, g.eps, g.exponent, p, basis.K, basis.M).apply(np.ones(1))
