"""Generalized multiquadric basis and its exact operator images.

Each center x_j carries phi_j(x) = (eps^2 + |x-x_j|^2)^((alpha-d)/2). The
fractional Laplacian, classical Laplacian and gradient of phi_j are all
available in closed form, which is what removes every volume quadrature
from the interior of the domain.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from fracrbf.geometry import as_points
from fracrbf.quadrature import integer_order
from fracrbf.specialfun import FracParams, coeff_mu

__all__ = [
    "GmqBasis",
    "phi_block",
    "psi_block",
    "frac_lap_block",
    "classical_lap_block",
    "grad_blocks",
]


@dataclass(frozen=True)
class GmqBasis:
    """Center list plus (d, alpha, eps); the exponent is beta = (alpha-d)/2."""

    centers: np.ndarray
    params: FracParams
    eps: float
    K: int = 10  # exterior-tail rule of every operator row: K Gauss nodes in s
    M: int = 64  # and M angles (2D only)

    def __post_init__(self):
        if not 0.0 < self.eps < np.inf:
            raise ValueError("shape parameter eps must be positive and finite")
        for name in ("K", "M"):
            integer_order(getattr(self, name), f"tail rule {name}")
        object.__setattr__(self, "centers", as_points(self.centers, self.params.d))

    @property
    def beta(self):
        return (self.params.alpha - self.params.d) / 2.0


def _sq_dist(basis, x, out=None):
    """r^2 to every center, shape (npoints, ncenters), in out if passed, plus the points as rows."""
    pts = as_points(x, basis.params.d)
    return cdist(pts, basis.centers, "sqeuclidean", out=out), pts


def phi_block(basis, x, out=None):
    """Matrix of phi_j(x_i), shape (npoints, ncenters), in the C-order out if passed."""
    r2, _ = _sq_dist(basis, x, out)
    r2 += basis.eps ** 2
    r2 **= basis.beta
    return r2


def psi_block(basis, x, out=None):
    """Matrix of (eps^2 + |x_i-x_j|^2)^(-(alpha+d)/2), in the C-order out if passed."""
    r2, _ = _sq_dist(basis, x, out)
    r2 += basis.eps ** 2
    r2 **= -(basis.params.alpha + basis.params.d) / 2.0
    return r2


def frac_lap_block(basis, x, out=None):
    """Full-space fractional Laplacian of every phi_j, in the C-order out if passed."""
    psi = psi_block(basis, x, out)
    return np.multiply(psi, basis.eps ** basis.params.alpha * coeff_mu(basis.params), out=psi)


def classical_lap_block(basis, x):
    """Matrix of the negative classical Laplacian -Delta phi_j(x_i)."""
    d = basis.params.d
    b = basis.beta
    eps2 = basis.eps ** 2
    w, _ = _sq_dist(basis, x)
    w += eps2
    coef1 = 2.0 * d * b + 4.0 * b * (b - 1.0)
    coef2 = 4.0 * b * (b - 1.0)
    out = w ** (b - 1.0)
    out *= -coef1
    w **= b - 2.0
    w *= coef2 * eps2
    return np.add(out, w, out=out)


def grad_blocks(basis, x):
    """Component matrices of grad phi_j(x_i); one (npoints, ncenters) per axis."""
    b = basis.beta
    common, pts = _sq_dist(basis, x)
    common += basis.eps ** 2
    common **= b - 1.0
    common *= 2.0 * b
    diffs = [pts[:, k, None] - basis.centers[None, :, k] for k in range(basis.params.d)]
    return [np.multiply(diff, common, out=diff) for diff in diffs]
