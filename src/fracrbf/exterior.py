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
    "add_tail",
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


# points per block in which _factors_2d fills b and c (elementwise work in
# blocks has the bits of the whole-array expressions), and rows per block in
# which TailFactors.assemble adds the product
_ROWS = 128
# quadrature nodes per block of the tail that add_tail adds into a matrix
_TAIL_NODES = 256


@dataclass(frozen=True)
class TailFactors:
    """Factored tail matrix, the rule's weights folded into b and b_alt: 1D
    scale*(b @ c + b_alt @ c_alt), 2D scale*(b @ c). `weights` records those
    weights (in 2D radial weight, Jacobian power and angle weight combined)."""

    b: np.ndarray
    c: np.ndarray
    weights: np.ndarray
    scale: float
    b_alt: np.ndarray | None = None
    c_alt: np.ndarray | None = None

    def assemble(self, out):
        """Add the tail matrix into the caller's (rows x centers) buffer `out`,
        _ROWS rows at a time: each block of rows is one matmul per half into a
        block-sized buffer, summed and scaled there, so no full product is a
        temporary. numpy's matmul splits its rows between BLAS threads at tile
        boundaries (the gemm of scipy's bundled OpenBLAS does not), so the
        sum has the same bits at one and two threads but in the last few
        centers' columns. The factors are only read."""
        halves = [h for h in ((self.b, self.c), (self.b_alt, self.c_alt)) if h[0] is not None]
        bufs = [np.empty((min(_ROWS, out.shape[0]), out.shape[1])) for _ in halves]
        for i in range(0, out.shape[0], _ROWS):
            rows = out[i:i + _ROWS]
            mat, *alt = [np.matmul(b[i:i + _ROWS], c, out=buf[:len(rows)])
                         for (b, c), buf in zip(halves, bufs)]
            for m in alt:
                mat += m
            mat *= self.scale
            rows += mat
        return out


def _factors_1d(points, centers, eps, beta, alpha, s, weights):
    """Factor pieces of int_{|y|>1} (eps^2+(y-c)^2)^beta |x-y|^(-1-alpha) dy."""
    gamma = alpha - 1.0 - 2.0 * beta
    w = weights * s ** gamma
    x = points[:, 0]
    xc = centers[:, 0]
    def ray(sign):
        """b and c of the ray toward sign*infinity: w (1 - sign*x*s)^(-1-alpha)."""
        return ((1.0 - sign * x[:, None] * s[None, :]) ** (-1.0 - alpha) * w,
                ((s[:, None] * eps) ** 2 + (1.0 - sign * xc[None, :] * s[:, None]) ** 2) ** beta)
    return (*ray(1.0), *ray(-1.0), w)


def _factors_2d(points, centers, eps, beta, alpha, nodes, weights, M):
    """Same split for the disk: nodes are the (s_k, theta_m) tensor grid."""
    angles, ang_weight = periodic_rule(M)
    s = np.repeat(nodes, M)
    gamma = alpha - 1.0 - 2.0 * beta
    w = np.repeat(weights, M) * s ** gamma * ang_weight
    theta = np.tile(angles, nodes.size)
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
    b *= w
    c = sqd(centers)
    c += (s[None, :] * eps) ** 2
    c **= beta
    return b, c.T, w


def _tail_factors(points, centers, eps, beta, p, K, M, rule=None):
    """Tail factors of the profiles (eps^2+|y-center|^2)^beta, rowed by
    points strictly inside the unit domain, on the radial (nodes, weights)
    `rule` (gauss_legendre_01(K) by default), the weights folded into b."""
    points, centers = as_points(points, p.d), as_points(centers, p.d)
    if np.any(np.sqrt(np.sum(points * points, axis=1)) >= 1.0):
        raise ValueError("tail rows exist only at points strictly inside the domain")
    nodes, weights = gauss_legendre_01(K) if rule is None else rule
    if p.d == 1:
        b_r, c_r, b_l, c_l, w = _factors_1d(points, centers, eps, beta, p.alpha, nodes, weights)
        return TailFactors(b_r, c_r, w, coeff_c(p), b_alt=b_l, c_alt=c_l)
    b, c, w = _factors_2d(points, centers, eps, beta, p.alpha, nodes, weights, M)
    return TailFactors(b, c, w, coeff_c(p))


def tail_factors_at(points, basis, rule=None):
    """Tail factors of basis under its rule, rowed by points strictly inside
    the domain, on the radial nodes `rule`: a run of whole rings given as
    (nodes, weights) slices of gauss_legendre_01(basis.K), all K by default."""
    return _tail_factors(points, basis.centers, basis.eps, basis.beta, basis.params,
                         basis.K, basis.M, rule)


def _node_blocks(basis):
    """The (nodes, weights) slices of gauss_legendre_01(basis.K) that every
    tail is added in: _TAIL_NODES // M whole radial rings (at least one) in
    2D, all K nodes in 1D. The rule is computed once."""
    nodes, weights = gauss_legendre_01(basis.K)
    step = basis.K if basis.params.d == 1 else max(1, _TAIL_NODES // basis.M)
    for k in range(0, basis.K, step):
        yield nodes[k:k + step], weights[k:k + step]


def add_tail(out, points, basis):
    """Add the tail matrix of basis, rowed by points strictly inside the
    domain, into the (rows x centers) buffer `out`, one of _node_blocks'
    blocks at a time, so one block's factors are all it holds beside out."""
    for rule in _node_blocks(basis):
        tail_factors_at(points, basis, rule).assemble(out)
    return out


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
    out = np.zeros((len(as_points(points, p.d)), 1))
    for rule in _node_blocks(basis):
        _tail_factors(points, g.center, g.eps, g.exponent, p, basis.K, basis.M, rule).assemble(out)
    return out[:, 0]
