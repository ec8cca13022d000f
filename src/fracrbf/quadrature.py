"""Quadrature rules for the exterior (tail) integrals, as plain arrays.

Gauss-Legendre on the open interval (0,1) for the compactified radial
variable, and the equispaced rectangle rule on (0, 2pi) for the angular
variable of the 2D tail.
"""

import numbers

import numpy as np

__all__ = ["integer_order", "gauss_legendre_01", "periodic_rule"]


def integer_order(value, what):
    """value as an int when it is an integer >= 1, numpy integers included;
    a bool, a float or a smaller integer raises ValueError naming what."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


def _legendre(x, K):
    """P_K and its derivative at x, by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for n in range(1, K):
        p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
    return p, K * (x * p - p_prev) / (x * x - 1.0)


def gauss_legendre_01(K):
    """Gauss-Legendre rule with K nodes mapped to (0,1): (nodes, weights),
    nodes strictly inside and ascending, weights summing to 1.

    Nodes are found by Newton iteration on the Legendre three-term
    recurrence, started from Chebyshev-type guesses; this is accurate to
    machine precision for every K up to the supported limit of 512.
    Exact for polynomials of degree <= 2K-1.
    """
    K = integer_order(K, "Gauss rule order")
    if K > 512:
        raise ValueError("Gauss rule order must satisfy 1 <= K <= 512")

    # initial guesses: Chebyshev points with the standard O(1/K) correction
    k = np.arange(K)
    x = np.cos(np.pi * (k + 0.75) / (K + 0.5))

    for _ in range(100):
        p, dp = _legendre(x, K)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Gauss-Legendre node iteration failed to converge")

    # recompute derivative at the converged nodes for the weights
    _, dp = _legendre(x, K)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    order = np.argsort(x)
    return (x[order] + 1.0) / 2.0, w[order] / 2.0


def periodic_rule(M):
    """Rectangle rule on (0, 2pi): (angles, weight), M equispaced angles
    starting at 0 and their uniform weight."""
    M = integer_order(M, "periodic rule angle count")
    return 2.0 * np.pi * np.arange(M) / M, 2.0 * np.pi / M
