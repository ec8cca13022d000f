"""Dense collocation system: assembly, LU solve, condition estimate.

System layout (interior-first ordering from geometry): the first n_interior
rows impose the fractional equation through the exact operator images plus
the exterior tails, the remaining rows pin the expansion to the boundary
values through plain basis evaluation.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import LinAlgWarning, get_lapack_funcs

from fracrbf.exterior import tail_factors_at
from fracrbf.rbf import frac_lap_block, phi_block

__all__ = [
    "SystemMatrices",
    "assemble",
    "condition_estimate",
    "nodal_operator",
]


def _factor(a):
    """LU with partial pivoting of the square F-contiguous float64 a, made in
    a's buffer with the bits lu_factor gives on a copy; an exactly zero pivot
    means singular. A C-order S is refused: factor its F-order view S.T and
    solve with trans=1."""
    if not a.flags.f_contiguous:
        raise ValueError("_factor takes an F-contiguous matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = sla.lu_factor(a, overwrite_a=True, check_finite=False)
    if np.any(np.diag(lu) == 0.0):
        raise np.linalg.LinAlgError("exactly singular matrix (zero pivot)")
    return lu, piv


def _phi_factor(basis):
    """LU of A_phi, evaluated afresh: the one place A_phi is LU-factored for
    solves. A_phi is bitwise symmetric, so its F-contiguous view a.T is A_phi
    itself and is factored in place."""
    return _factor(phi_block(basis, basis.centers).T)


def _cholesky(a):
    """Cholesky factor of the symmetric a, made in a's own buffer, or None when
    a pivot is not positive. `potrf` factors the upper triangle of the
    F-contiguous view a.T, which is a's lower one, so a's strict upper
    triangle is never written: after a failure a is made whole again from it
    and the saved diagonal, bit for bit, without a second N×N array."""
    diag = a.diagonal().copy()
    c, info = get_lapack_funcs("potrf", (a,))(a.T, overwrite_a=True, clean=False)
    if info < 0:
        raise np.linalg.LinAlgError("Cholesky factorization failed")
    if info == 0:
        return c
    for i in range(a.shape[0] - 1):
        a[i + 1:, i] = a[i, i + 1:]
    np.fill_diagonal(a, diag)
    return None


@dataclass
class SystemMatrices:
    """The collocation system S and the point set and basis it was assembled
    from. Neither A_phi nor any factorization is kept: A_phi is evaluated in
    the rows a caller needs, and each LU is dropped right after its use.
    `solve` factors S^T in S's buffer and sets `s` to None, so a system
    solves once; read any rows of S before that."""

    ps: object
    basis: object
    s: np.ndarray | None

    def solve(self, rhs):
        """S^{-1} rhs through an LU of S^T made in S's buffer; consumes S."""
        if self.s is None:
            raise ValueError("S was consumed by an earlier solve")
        s, self.s = self.s, None
        return sla.lu_solve(_factor(s.T), np.asarray(rhs, dtype=float), trans=1)


def assemble(ps, basis):
    """Build the system S: closed-form images plus exterior tails on the
    equation rows, plain basis values on the zero-value rows. The basis must
    be centered at the point set, which makes A_phi symmetric."""
    if not np.array_equal(basis.centers, ps.points):
        raise ValueError("the basis must be centered at the point set")
    s = np.empty((ps.n_total, ps.n_total))
    # the tail quadrature's factors set the peak memory, so the image block is
    # built only after the tail product has been written into S and they are gone
    tail_factors_at(ps.interior, basis).assemble(out=s[:ps.n_interior])
    s[:ps.n_interior] += frac_lap_block(basis, ps.interior)
    s[ps.n_interior:] = phi_block(basis, ps.boundary)
    return SystemMatrices(ps, basis, s)


def condition_estimate(basis, a):
    """1-norm condition estimate of the interpolation matrix A_phi of basis,
    given as a, which it factors in place (Hager-Higham style through the
    LAPACK reciprocal-condition routines; a lower bound of cond_1).

    With beta < 0 A_phi is positive definite, so a Cholesky factor and `pocon`
    serve; an LU and `gecon` serve when beta >= 0, or when rounding leaves a
    Cholesky pivot that is not positive."""
    anorm = float(get_lapack_funcs("lange", (a,))("I", a.T))
    chol = _cholesky(a) if basis.beta < 0 else None
    if chol is not None:
        rcond, info = get_lapack_funcs("pocon", (chol,))(chol, anorm)
    else:
        lu = _factor(a.T)[0]
        rcond, info = get_lapack_funcs("gecon", (lu,))(lu, anorm, norm="1")
    if info != 0:
        raise np.linalg.LinAlgError("condition estimation failed")
    if rcond == 0.0 or not np.isfinite(rcond):
        return np.inf
    return 1.0 / float(rcond)


def nodal_operator(ps, basis):
    """The coefficient map of basis on the point set ps: columns
    0..n_interior-1 of the inverse of A_phi, an (n_total, n_interior) array
    that turns interior nodal values (with zero boundary values) into
    coefficients. A block of operator rows times it is that operator on
    interior nodal values."""
    n_int = ps.n_interior
    rhs = np.zeros((ps.n_total, n_int))
    rhs[:n_int, :] = np.eye(n_int)
    return sla.lu_solve(_phi_factor(basis), rhs)
