"""Dense collocation system: assembly, LU solve, condition estimate.

System layout (interior-first ordering from geometry): the first n_interior
rows impose the fractional equation through the exact operator images plus
the exterior tails, the remaining rows pin the expansion to the boundary
values through plain basis evaluation.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import LinAlgWarning, get_lapack_funcs

from fracrbf.exterior import tail_factors_at
from fracrbf.rbf import frac_lap_block, phi_block

__all__ = [
    "SystemMatrices",
    "assemble",
    "nodal_values",
    "condition_estimate",
    "nodal_operator",
]


def _factor(mat):
    """LU with partial pivoting; an exactly zero pivot means singular."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = sla.lu_factor(mat, check_finite=False)
    if np.any(np.diag(lu) == 0.0):
        raise np.linalg.LinAlgError("exactly singular matrix (zero pivot)")
    return lu, piv


@dataclass
class SystemMatrices:
    """Assembled collocation matrices plus factorization handles."""

    ps: object
    a_phi: np.ndarray
    s: np.ndarray
    _s_lu: tuple = field(default=None, repr=False)
    _phi_lu: tuple = field(default=None, repr=False)

    @property
    def n_interior(self):
        return self.ps.n_interior

    def s_lu(self):
        if self._s_lu is None:
            self._s_lu = _factor(self.s)
        return self._s_lu

    def phi_lu(self):
        if self._phi_lu is None:
            self._phi_lu = _factor(self.a_phi)
        return self._phi_lu

    def solve(self, rhs):
        return sla.lu_solve(self.s_lu(), np.asarray(rhs, dtype=float))


def assemble(ps, basis, K=10, M=64):
    """Build A_phi and the system S: closed-form images plus exterior tails
    on the equation rows, plain basis values on the zero-value rows."""
    a_phi = phi_block(basis, ps.points)
    # tails before the image block: the tail quadrature's temporaries set the
    # peak memory, so no (n_interior, N) block should be alive beside them
    tail = tail_factors_at(ps.interior, basis, K=K, M=M).assemble()
    top = frac_lap_block(basis, ps.interior) + tail
    s = np.vstack([top, a_phi[ps.n_interior:, :]])
    return SystemMatrices(ps, a_phi, s)


def nodal_values(sm, lam):
    """Expansion values at the equation points: top block of A_phi times lam."""
    return sm.a_phi[: sm.n_interior, :] @ np.asarray(lam, dtype=float)


def condition_estimate(sm):
    """1-norm condition estimate of the interpolation matrix A_phi
    (Hager-Higham style through the LAPACK reciprocal-condition routine)."""
    mat = sm.a_phi
    lu, _ = sm.phi_lu()
    anorm = float(np.max(np.abs(mat).sum(axis=0)))
    gecon = get_lapack_funcs(("gecon",), (mat,))[0]
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:
        raise np.linalg.LinAlgError("condition estimation failed")
    if rcond == 0.0 or not np.isfinite(rcond):
        return np.inf
    return 1.0 / float(rcond)


def nodal_operator(sm, rows=None):
    """Square operator on nodal interior values.

    Columns 0..n_interior-1 of A_phi^{-1} turn interior nodal values (with
    zero boundary values) into coefficients; `rows` (default: the equation
    rows of S) maps coefficients to operator values at the interior points.
    """
    n_int = sm.n_interior
    n = sm.a_phi.shape[0]
    rhs = np.zeros((n, n_int))
    rhs[:n_int, :] = np.eye(n_int)
    coeff_map = sla.lu_solve(sm.phi_lu(), rhs)
    w = sm.s[:n_int, :] if rows is None else np.asarray(rows, dtype=float)
    return w @ coeff_map
