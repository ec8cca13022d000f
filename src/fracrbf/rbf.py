"""Generalized multiquadric basis and its exact operator images.

Each center x_j carries phi_j(x) = (eps^2 + |x-x_j|^2)^((alpha-d)/2). The
fractional Laplacian, classical Laplacian and gradient of phi_j are all
available in closed form, which is what removes every volume quadrature
from the interior of the domain.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from fracrbf.specialfun import FracParams, coeff_eta, coeff_mu

__all__ = [
    "GmqBasis",
    "phi",
    "psi",
    "frac_lap_phi",
    "frac_lap_phi_alt",
    "classical_lap_phi",
    "grad_phi",
    "phi_block",
    "psi_block",
    "frac_lap_block",
    "classical_lap_block",
    "grad_blocks",
]


@dataclass(frozen=True)
class GmqBasis:
    """Center list plus (d, alpha, eps); exponent defaults to (alpha-d)/2.

    A nondefault exponent selects the shifted profile (alpha-2-d)/2 used by
    the alternative identity, or arbitrary powers for algebraic test cases.
    """

    centers: np.ndarray
    params: FracParams
    eps: float
    exponent: float | None = None

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("shape parameter eps must be positive")
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if c.shape[1] != self.params.d:
            c = c.reshape(-1, self.params.d)
        object.__setattr__(self, "centers", c)

    @property
    def beta(self):
        if self.exponent is not None:
            return self.exponent
        return (self.params.alpha - self.params.d) / 2.0

    @property
    def n(self):
        return self.centers.shape[0]


def _points(basis, x):
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if pts.ndim == 1:
        pts = pts[:, None] if basis.params.d == 1 else pts[None, :]
    return pts


def _sq_dist(basis, x, j=None):
    pts = _points(basis, x)
    centers = basis.centers if j is None else basis.centers[j:j + 1]
    return cdist(pts, centers, "sqeuclidean"), pts


def _maybe_scalar(arr, x):
    if np.ndim(x) == 0 or (np.ndim(x) == 1 and arr.shape[0] == 1):
        return float(arr[0])
    return arr


# per-center evaluations -----------------------------------------------------


def phi(basis, j, x):
    """Basis function value (eps^2 + |x-x_j|^2)^beta."""
    r2, _ = _sq_dist(basis, x, j)
    out = (basis.eps ** 2 + r2[:, 0]) ** basis.beta
    return _maybe_scalar(out, x)


def psi(basis, j, x):
    """Companion profile (eps^2 + |x-x_j|^2)^(-(alpha+d)/2)."""
    d, alpha = basis.params.d, basis.params.alpha
    r2, _ = _sq_dist(basis, x, j)
    out = (basis.eps ** 2 + r2[:, 0]) ** (-(alpha + d) / 2.0)
    return _maybe_scalar(out, x)


def frac_lap_phi(basis, j, x):
    """Full-space fractional Laplacian of phi_j: eps^alpha mu psi_j."""
    _require_default_exponent(basis)
    mu = coeff_mu(basis.params)
    out = basis.eps ** basis.params.alpha * mu
    vals = psi(basis, j, x)
    return out * vals


def frac_lap_phi_alt(basis, j, x):
    """Fractional Laplacian via the shifted-exponent identity.

    Valid for a basis whose exponent is (alpha-2-d)/2; the image is a
    two-term combination of inverse powers.
    """
    d, alpha, eps = basis.params.d, basis.params.alpha, basis.eps
    want = (alpha - 2.0 - d) / 2.0
    if basis.beta != want:
        raise ValueError("alternative identity needs basis exponent (alpha-2-d)/2")
    eta1, eta2 = coeff_eta(basis.params)
    r2, _ = _sq_dist(basis, x, j)
    w = eps ** 2 + r2[:, 0]
    out = (eta1 * eps ** (alpha - 2.0) * w ** (-(alpha + d) / 2.0)
           + eta2 * eps ** alpha * w ** (-(alpha + d) / 2.0 - 1.0))
    return _maybe_scalar(out, x)


def classical_lap_phi(basis, j, x):
    """Negative classical Laplacian -Delta phi_j, exact for any exponent."""
    d = basis.params.d
    b = basis.beta
    eps2 = basis.eps ** 2
    r2, _ = _sq_dist(basis, x, j)
    w = eps2 + r2[:, 0]
    coef1 = 2.0 * d * b + 4.0 * b * (b - 1.0)
    coef2 = 4.0 * b * (b - 1.0)
    out = -coef1 * w ** (b - 1.0) + coef2 * eps2 * w ** (b - 2.0)
    return _maybe_scalar(out, x)


def grad_phi(basis, j, x):
    """Gradient of phi_j: 2 beta (x-x_j) (eps^2+|x-x_j|^2)^(beta-1)."""
    b = basis.beta
    r2, pts = _sq_dist(basis, x, j)
    diff = pts - basis.centers[j]
    out = 2.0 * b * diff * (basis.eps ** 2 + r2) ** (b - 1.0)
    if np.ndim(x) <= 1 and out.shape[0] == 1:
        return out[0]
    return out


def _require_default_exponent(basis):
    if basis.exponent is not None and basis.exponent != (basis.params.alpha - basis.params.d) / 2.0:
        raise ValueError("identity holds for the default exponent (alpha-d)/2 only")


# dense blocks over all centers ----------------------------------------------


def phi_block(basis, x):
    """Matrix of phi_j(x_i), shape (npoints, ncenters)."""
    r2, _ = _sq_dist(basis, x)
    return (basis.eps ** 2 + r2) ** basis.beta


def psi_block(basis, x):
    d, alpha = basis.params.d, basis.params.alpha
    r2, _ = _sq_dist(basis, x)
    return (basis.eps ** 2 + r2) ** (-(alpha + d) / 2.0)


def frac_lap_block(basis, x):
    """Matrix of the full-space fractional Laplacian of every phi_j."""
    _require_default_exponent(basis)
    mu = coeff_mu(basis.params)
    return basis.eps ** basis.params.alpha * mu * psi_block(basis, x)


def classical_lap_block(basis, x):
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
