"""Meshless fractional-Laplacian solver on intervals and disks.

Generalized multiquadric collocation with closed-form operator identities,
exterior-tail quadrature, steady and time-dependent drivers, and a
verification oracle based on direct hypersingular integration.
"""

from fracrbf.specialfun import FracParams, gamma_fn, gauss_2f1, coeff_c, coeff_mu, coeff_eta
from fracrbf.quadrature import QuadRule1D, PeriodicRule, gauss_legendre_01, periodic_rule
from fracrbf.geometry import Domain, PointSet, uniform_interval, polar_layout, disk_grid
from fracrbf.rbf import GmqBasis
from fracrbf.linsys import assemble, condition_estimate, nodal_operator
from fracrbf.steady import (interpolate, forward_frac_lap, forward_frac_lap_clipped,
                            solve_poisson, evaluate_interpolant)
from fracrbf.dynamics import EvolutionConfig, crank_nicolson_mixed, ssp_rk3_step, run_qg
from fracrbf.harness import rms_error, RunReport

__version__ = "0.1.0"
