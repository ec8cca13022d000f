"""Dense collocation system: assembly, LU solve, condition estimate.

System layout (interior-first ordering from geometry): the first n_interior
rows impose the fractional equation through the exact operator images plus
the exterior tails, the remaining rows pin the expansion to the boundary
values through plain basis evaluation.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
from scipy.linalg import LinAlgWarning, get_lapack_funcs

from fracrbf.exterior import add_tail
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
    means singular, a non-finite one an inf or nan entry. A C-order S is
    refused: factor its F-order view S.T and solve with trans=1."""
    if not a.flags.f_contiguous:
        raise ValueError("_factor takes an F-contiguous matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = sla.lu_factor(a, overwrite_a=True, check_finite=False)
    if not np.all(np.isfinite(lu.diagonal())):
        raise np.linalg.LinAlgError("non-finite pivot: the matrix holds an inf or a nan")
    if np.any(lu.diagonal() == 0.0):
        raise np.linalg.LinAlgError("exactly singular matrix (zero pivot)")
    return lu, piv


def _phi_factor(basis, a=None):
    """The one factorization of A_phi, made in the buffer of a, the C-order
    A_phi of basis, or of A_phi evaluated afresh when a is None: (factor, piv).

    A_phi is bitwise symmetric, so its F-contiguous view a.T is A_phi itself.
    With beta < 0 A_phi is positive definite, and the factor is potrf's upper
    Cholesky factor with piv None. Where beta >= 0, or where rounding leaves
    a Cholesky pivot that is not positive or not finite, it is _factor's LU,
    in the latter case of A_phi evaluated again into a (the same bits)."""
    if a is None:
        a = phi_block(basis, basis.centers)
    if basis.beta < 0:
        c, info = get_lapack_funcs("potrf", (a,))(a.T, overwrite_a=True, clean=False)
        if info == 0 and np.all(np.isfinite(c.diagonal())):
            return c, None
        phi_block(basis, basis.centers, out=a)
    return _factor(a.T)


def _phi_solve(basis, rhs):
    """A_phi^{-1} rhs through _phi_factor's factor, which is dropped on return;
    cho_solve's finiteness scan would add an N x N bool array."""
    c, piv = _phi_factor(basis)
    if piv is None:
        return sla.cho_solve((c, False), rhs, check_finite=False)
    return sla.lu_solve((c, piv), rhs)


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


def assemble(ps, basis, orbit=None):
    """Build the system S: closed-form images plus exterior tails on the
    equation rows, plain basis values on the zero-value rows. The basis must
    be centered at the point set, which makes A_phi symmetric. With `orbit`
    (geometry.orbits), the rows are built at the orbits' representatives and
    the columns, taken orbit by orbit, summed over each orbit: the system of
    a lam constant on orbits. Singleton orbits, the default, give the whole S."""
    if not np.array_equal(basis.centers, ps.points):
        raise ValueError("the basis must be centered at the point set")
    orbit = np.arange(ps.n_total) if orbit is None else orbit
    members = np.argsort(orbit, kind="stable")
    first = np.flatnonzero(np.diff(orbit[members], prepend=-1))
    n = int(np.searchsorted(members[first], ps.n_interior))
    pts, cols = ps.points[members[first]], replace(basis, centers=ps.points[members])
    s = np.empty((len(first), ps.n_total))
    frac_lap_block(cols, pts[:n], out=s[:n])
    phi_block(cols, pts[n:], out=s[n:])
    # the tail is added into the equation rows in place, with no second such array
    add_tail(s[:n], pts[:n], cols)
    if len(first) < ps.n_total:
        s = np.add.reduceat(s, first, axis=1)
    return SystemMatrices(ps, basis, s)


def condition_estimate(basis, a):
    """1-norm condition estimate of the interpolation matrix A_phi of basis,
    given as a, which _phi_factor factors in place (Hager-Higham style through
    the LAPACK reciprocal-condition routines; a lower bound of cond_1): `pocon`
    on its Cholesky factor, `gecon` on its LU."""
    anorm = float(get_lapack_funcs("lange", (a,))("I", a.T))
    c, piv = _phi_factor(basis, a)
    if piv is None:
        rcond, info = get_lapack_funcs("pocon", (c,))(c, anorm)
    else:
        rcond, info = get_lapack_funcs("gecon", (c,))(c, anorm, norm="1")
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
    return _phi_solve(basis, np.eye(ps.n_total, ps.n_interior))
