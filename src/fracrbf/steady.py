"""Steady pipelines: interpolation, forward operator evaluation, and the
right-hand side of the fractional Poisson solve with optional nonzero
exterior data, which harness.solve_row solves."""

import warnings

import numpy as np

from fracrbf.exterior import add_tail, exterior_data_correction
from fracrbf.linsys import _phi_solve
from fracrbf.rbf import frac_lap_block, phi_block

__all__ = [
    "interpolate",
    "forward_frac_lap_clipped",
    "poisson_rhs",
    "evaluate_interpolant",
]

_RESIDUAL_WARN = 1e-6


def interpolate(basis, samples):
    """Expansion coefficients matching the samples at the N centers; A_phi's
    factor is dropped before A_phi is evaluated again for the residual check."""
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    lam = _phi_solve(basis, samples)
    resid = np.max(np.abs(phi_block(basis, basis.centers) @ lam - samples))
    scale = max(np.max(np.abs(samples)), 1.0)
    if resid / scale > _RESIDUAL_WARN:
        warnings.warn(f"interpolation residual {resid:.2e} exceeds {_RESIDUAL_WARN:.0e}; "
                      "the interpolation matrix is severely ill-conditioned")
    return lam


def forward_frac_lap_clipped(lam, basis, test_points):
    """Fractional Laplacian of the expansion zero-extended outside the unit
    domain: the full-space image plus the tail of every center over the
    exterior, built by the two calls that build the equation rows of S, so
    its residual against f is the quantity the convergence tables track."""
    lam = np.asarray(lam, dtype=float)
    return add_tail(frac_lap_block(basis, test_points), test_points, basis) @ lam


def poisson_rhs(ps, basis, f, g=None):
    """The right-hand side of the exterior-value problem at all N points: f
    plus the tail of the exterior datum g under the rule of basis on the
    equation rows, g on the zero-value rows; g=None means g = 0."""
    rhs = np.zeros(ps.n_total)
    rhs[: ps.n_interior] = f(ps.interior)
    if g is not None:
        rhs[: ps.n_interior] += exterior_data_correction(g, ps.interior, basis)
        if ps.n_interior < ps.n_total:
            rhs[ps.n_interior:] = g.value(ps.boundary)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side must be finite at the collocation points")
    return rhs


def evaluate_interpolant(lam, basis, points):
    """Plain expansion evaluation at arbitrary points."""
    return phi_block(basis, points) @ np.asarray(lam, dtype=float)
