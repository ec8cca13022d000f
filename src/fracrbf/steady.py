"""Steady pipelines: interpolation, forward operator evaluation, and the
fractional Poisson solve with optional nonzero exterior data."""

import warnings

import numpy as np

from fracrbf.exterior import exterior_data_correction, tail_factors_at
from fracrbf.linsys import _phi_solve
from fracrbf.rbf import frac_lap_block, phi_block

__all__ = [
    "interpolate",
    "forward_frac_lap_clipped",
    "solve_poisson",
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
    exterior. This is the operator the collocation rows discretize, so its
    residual against f is the quantity the convergence tables track."""
    lam = np.asarray(lam, dtype=float)
    return frac_lap_block(basis, test_points) @ lam + tail_factors_at(test_points, basis).apply(lam)


def solve_poisson(sm, f, g=None):
    """Collocation solve of the exterior-value problem on the system sm.

    Equation rows carry the exact operator image plus the basis tails; the
    right-hand side gains the tail integral of the exterior datum g under
    the rule of sm.basis, and the zero-value rows pin the expansion to g on
    the boundary set. g=None means homogeneous exterior data. Returns the
    coefficients; evaluate_interpolant turns them into field values.
    """
    ps = sm.ps
    rhs = np.zeros(ps.n_total)
    rhs[: ps.n_interior] = f(ps.interior)
    if g is not None:
        rhs[: ps.n_interior] += exterior_data_correction(g, ps.interior, sm.basis)
        if ps.n_interior < ps.n_total:
            rhs[ps.n_interior:] = g.value(ps.boundary)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side must be finite at the collocation points")
    return sm.solve(rhs)


def evaluate_interpolant(lam, basis, points):
    """Plain expansion evaluation at arbitrary points."""
    return phi_block(basis, points) @ np.asarray(lam, dtype=float)
