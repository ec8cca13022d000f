"""Tail integrals of radial profiles over the exterior of the unit domain.

The fractional-Laplacian rows need c_{d,alpha} int_{|y|>1} phi_j(y) |x_i-y|^(-d-alpha) dy
for every equation point x_i. The substitution y -> sigma/s maps the exterior
ray of each direction sigma onto (0,1] and splits the integrand into an
x_i-only factor and an x_j-only factor per quadrature node, so the whole
matrix is a product of two thin factors and never costs more than O(N*K)
memory per side.
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


# points per block in which _tail_factors fills b and c (elementwise work in
# blocks has the bits of the whole-array expressions), and rows per block in
# which TailFactors.assemble adds the product
_ROWS = 128
# quadrature nodes per block of the tail that add_tail adds into a matrix
_TAIL_NODES = 256


@dataclass(frozen=True)
class TailFactors:
    """Factored tail matrix scale*(b @ c), the rule's weights folded into b.
    A column of b (row of c) is one node of the tensor grid of the radial
    rule and the direction rule, node-major; `weights` records its weights
    (radial weight, Jacobian power and direction weight combined). b_alt and
    c_alt are always None: perfbench/layertrace.py still reads them."""

    b: np.ndarray
    c: np.ndarray
    weights: np.ndarray
    scale: float
    b_alt: np.ndarray | None = None
    c_alt: np.ndarray | None = None

    def assemble(self, out):
        """Add the tail matrix into the caller's (rows x centers) buffer `out`,
        _ROWS rows at a time: each block of rows is one matmul into a
        block-sized buffer, scaled there, so no full product is a
        temporary. numpy's matmul splits its rows between BLAS threads at tile
        boundaries (the gemm of scipy's bundled OpenBLAS does not), so the
        sum has the same bits at one and two threads but in the last few
        centers' columns. The factors are only read."""
        buf = np.empty((min(_ROWS, out.shape[0]), out.shape[1]))
        for i in range(0, out.shape[0], _ROWS):
            rows = out[i:i + _ROWS]
            mat = np.matmul(self.b[i:i + _ROWS], self.c, out=buf[:len(rows)])
            mat *= self.scale
            rows += mat
        return out


def _directions(d, M):
    """The direction rule of the exterior rays y = sigma/s: the unit vectors
    sigma (one a row) and their weight, +-1 of weight 1 on the interval and
    periodic_rule(M)'s M angles on the disk."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), 1.0
    angles, weight = periodic_rule(M)
    return np.column_stack([np.cos(angles), np.sin(angles)]), weight


def _tail_factors(points, centers, eps, beta, p, K, M, rule=None):
    """Tail factors of the profiles (eps^2+|y-center|^2)^beta, rowed by
    points strictly inside the unit domain: the split of
    int_{|y|>1} (eps^2+|y-c|^2)^beta |x-y|^(-d-alpha) dy at y = sigma/s on
    the tensor grid of the radial (nodes, weights) `rule`
    (gauss_legendre_01(K) by default) and the directions sigma, node-major,
    the weights folded into b."""
    points, centers = as_points(points, p.d), as_points(centers, p.d)
    if np.any(np.sqrt(np.sum(points * points, axis=1)) >= 1.0):
        raise ValueError("tail rows exist only at points strictly inside the domain")
    nodes, weights = gauss_legendre_01(K) if rule is None else rule
    dirs, dir_weight = _directions(p.d, M)
    s = np.repeat(nodes, len(dirs))
    w = np.repeat(weights, len(dirs)) * s ** (p.alpha - 1.0 - 2.0 * beta) * dir_weight
    sig = np.tile(dirs, (nodes.size, 1)).T

    def sqd(pts):
        """|sigma - s x|^2, one (points x nodes) array filled _ROWS points at a
        time, so each further coordinate's term needs only a block-sized buffer"""
        out = np.empty((pts.shape[0], s.size))
        tmp = np.empty((min(_ROWS, pts.shape[0]), s.size))
        for i in range(0, pts.shape[0], _ROWS):
            block = out[i:i + _ROWS]
            for k, (xk, sig_k) in enumerate(zip(pts[i:i + _ROWS].T, sig)):
                dk = tmp[:block.shape[0]] if k else block
                np.multiply(xk[:, None], s[None, :], out=dk)
                np.subtract(sig_k[None, :], dk, out=dk)
                dk *= dk
                if k:
                    block += dk
        return out
    if p.d == 1:
        # |sigma - s x| is 1 - sigma s x on the interval, raised unsquared
        b = (1.0 - points * sig[0] * s) ** (-1.0 - p.alpha)
    else:
        b = sqd(points)
        b **= -(p.alpha / 2.0 + 1.0)
    b *= w
    c = sqd(centers)
    c += (s[None, :] * eps) ** 2
    c **= beta
    return TailFactors(b, c.T, w, coeff_c(p))


def tail_factors_at(points, basis, rule=None):
    """Tail factors of basis under its rule, rowed by points strictly inside
    the domain, on the radial nodes `rule`: a run of whole rings given as
    (nodes, weights) slices of gauss_legendre_01(basis.K), all K by default."""
    return _tail_factors(points, basis.centers, basis.eps, basis.beta, basis.params,
                         basis.K, basis.M, rule)


def _node_blocks(basis):
    """The (nodes, weights) slices of gauss_legendre_01(basis.K) that every
    tail is added in: _TAIL_NODES // (directions per radial node) whole
    rings (at least one). The rule is computed once."""
    nodes, weights = gauss_legendre_01(basis.K)
    step = max(1, _TAIL_NODES // len(_directions(basis.params.d, basis.M)[0]))
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
