"""Generalized multiquadric basis and its exact operator images.

Each center x_j carries phi_j(x) = (eps^2 + |x-x_j|^2)^((alpha-d)/2). The
fractional Laplacian, classical Laplacian and gradient of phi_j are all
available in closed form, which is what removes every volume quadrature
from the interior of the domain.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

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

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("shape parameter eps must be positive")
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if c.shape[1] != self.params.d:
            c = c.reshape(-1, self.params.d)
        object.__setattr__(self, "centers", c)

    @property
    def beta(self):
        return (self.params.alpha - self.params.d) / 2.0

    @property
    def n(self):
        return self.centers.shape[0]


def _sq_dist(basis, x):
    """r^2 to every center, shape (npoints, ncenters), plus the points as rows."""
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if pts.ndim == 1:
        pts = pts[:, None] if basis.params.d == 1 else pts[None, :]
    return cdist(pts, basis.centers, "sqeuclidean"), pts


def phi_block(basis, x):
    """Matrix of phi_j(x_i), shape (npoints, ncenters)."""
    r2, _ = _sq_dist(basis, x)
    return (basis.eps ** 2 + r2) ** basis.beta


def psi_block(basis, x):
    """Matrix of the companion profile (eps^2 + |x_i-x_j|^2)^(-(alpha+d)/2)."""
    d, alpha = basis.params.d, basis.params.alpha
    r2, _ = _sq_dist(basis, x)
    return (basis.eps ** 2 + r2) ** (-(alpha + d) / 2.0)


def frac_lap_block(basis, x):
    """Matrix of the full-space fractional Laplacian of every phi_j."""
    mu = coeff_mu(basis.params)
    return basis.eps ** basis.params.alpha * mu * psi_block(basis, x)


def classical_lap_block(basis, x):
    """Matrix of the negative classical Laplacian -Delta phi_j(x_i)."""
    d = basis.params.d
    b = basis.beta
    eps2 = basis.eps ** 2
    r2, _ = _sq_dist(basis, x)
    w = eps2 + r2
    coef1 = 2.0 * d * b + 4.0 * b * (b - 1.0)
    coef2 = 4.0 * b * (b - 1.0)
    return -coef1 * w ** (b - 1.0) + coef2 * eps2 * w ** (b - 2.0)


def grad_blocks(basis, x):
    """Component matrices of grad phi_j(x_i); one (npoints, ncenters) per axis."""
    b = basis.beta
    r2, pts = _sq_dist(basis, x)
    common = 2.0 * b * (basis.eps ** 2 + r2) ** (b - 1.0)
    return [common * (pts[:, k, None] - basis.centers[None, :, k])
            for k in range(basis.params.d)]
