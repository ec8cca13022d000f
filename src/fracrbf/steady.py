"""Steady pipelines: interpolation, forward operator evaluation, and the
fractional Poisson solve with optional nonzero exterior data."""

import warnings

import numpy as np

from fracrbf.exterior import exterior_data_correction, tail_factors_at
from fracrbf.linsys import assemble, nodal_values
from fracrbf.rbf import frac_lap_block, phi_block

__all__ = [
    "interpolate",
    "forward_frac_lap",
    "forward_frac_lap_clipped",
    "solve_poisson",
    "evaluate_interpolant",
    "test_points_disk",
]

_RESIDUAL_WARN = 1e-6


def interpolate(ps, basis, samples):
    """Expansion coefficients matching the samples at all N points."""
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    a_phi = phi_block(basis, ps.points)
    lam = np.linalg.solve(a_phi, samples)
    resid = np.max(np.abs(a_phi @ lam - samples))
    scale = max(np.max(np.abs(samples)), 1.0)
    if resid / scale > _RESIDUAL_WARN:
        warnings.warn(f"interpolation residual {resid:.2e} exceeds {_RESIDUAL_WARN:.0e}; "
                      "the interpolation matrix is severely ill-conditioned")
    return lam


def forward_frac_lap(lam, basis, test_points):
    """Fractional Laplacian of the expansion, exact via the operator images."""
    return frac_lap_block(basis, test_points) @ np.asarray(lam, dtype=float)


def forward_frac_lap_clipped(lam, basis, test_points, K=10, M=64):
    """Fractional Laplacian of the expansion zero-extended outside the unit
    domain: the full-space image plus the tail of every center over the
    exterior. This is the operator the collocation rows discretize, so its
    residual against f is the quantity the convergence tables track."""
    w = (frac_lap_block(basis, test_points)
         + tail_factors_at(test_points, basis, K=K, M=M).assemble())
    return w @ np.asarray(lam, dtype=float)


def solve_poisson(ps, basis, f, g=None, K=10, M=64, system=None):
    """Collocation solve of the exterior-value problem.

    Equation rows carry the exact operator image plus the basis tails; the
    right-hand side gains the tail integral of the exterior datum g, and
    the zero-value rows pin the expansion to g on the boundary set. g=None
    means homogeneous exterior data.
    """
    sm = assemble(ps, basis, K=K, M=M) if system is None else system
    rhs = np.zeros(ps.n_total)
    rhs[: ps.n_interior] = f(ps.interior)
    if g is not None:
        rhs[: ps.n_interior] += exterior_data_correction(g, ps, basis.params, K=K, M=M)
        if ps.n_interior < ps.n_total:
            rhs[ps.n_interior:] = g.value(ps.boundary)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side must be finite at the collocation points")
    lam = sm.solve(rhs)
    return lam, nodal_values(sm, lam)


def evaluate_interpolant(lam, basis, points):
    """Plain expansion evaluation at arbitrary points."""
    return phi_block(basis, points) @ np.asarray(lam, dtype=float)


def test_points_disk(n_radii=40, n_angles=64, r_max=0.95):
    """Error-measurement grid on the disk: origin plus a polar lattice of
    n_radii radii up to r_max by n_angles angles."""
    radii = r_max * np.arange(1, n_radii + 1) / n_radii
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    rr, tt = np.meshgrid(radii, angles, indexing="ij")
    pts = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
    return np.vstack([np.zeros((1, 2)), pts])


# keeps pytest from collecting this grid function when a test module imports it
test_points_disk.__test__ = False
