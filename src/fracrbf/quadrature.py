"""Quadrature rules for the exterior (tail) integrals.

Gauss-Legendre on the open interval (0,1) for the compactified radial
variable, and the equispaced rectangle rule on (0, 2pi) for the angular
variable of the 2D tail.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadRule1D", "PeriodicRule", "gauss_legendre_01", "periodic_rule"]


@dataclass(frozen=True)
class QuadRule1D:
    """Gauss rule on (0,1): nodes strictly inside, weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class PeriodicRule:
    """Equispaced rectangle rule on (0, 2pi) starting at angle 0."""

    angles: np.ndarray
    weight: float


def gauss_legendre_01(K):
    """Gauss-Legendre rule with K nodes mapped to (0,1).

    Nodes are found by Newton iteration on the Legendre three-term
    recurrence, started from Chebyshev-type guesses; this is accurate to
    machine precision for every K up to the supported limit of 512.
    Exact for polynomials of degree <= 2K-1.
    """
    K = int(K)
    if not 1 <= K <= 512:
        raise ValueError("Gauss rule order must satisfy 1 <= K <= 512")

    # initial guesses: Chebyshev points with the standard O(1/K) correction
    k = np.arange(K)
    x = np.cos(np.pi * (k + 0.75) / (K + 0.5))

    for _ in range(100):
        # evaluate P_K and P_{K-1} by the recurrence
        p_prev = np.ones_like(x)
        p = x.copy()
        for n in range(1, K):
            p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        dp = K * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Gauss-Legendre node iteration failed to converge")

    # recompute derivative at the converged nodes for the weights
    p_prev = np.ones_like(x)
    p = x.copy()
    for n in range(1, K):
        p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
    dp = K * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    order = np.argsort(x)
    x, w = x[order], w[order]
    return QuadRule1D(nodes=(x + 1.0) / 2.0, weights=w / 2.0)


def periodic_rule(M):
    """Rectangle rule on (0, 2pi): M equispaced angles, uniform weight."""
    M = int(M)
    if M < 1:
        raise ValueError("periodic rule needs at least one angle")
    angles = 2.0 * np.pi * np.arange(M) / M
    return PeriodicRule(angles=angles, weight=2.0 * np.pi / M)
