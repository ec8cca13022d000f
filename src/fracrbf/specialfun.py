"""Special functions and the closed-form kernel coefficients.

Gamma and 2F1 enter the method only through the operator constants
(mu, c, eta) and the closed-form right-hand sides. Both are guarded
scipy.special calls: a pole or an argument outside the supported range
raises ValueError, a non-finite result ArithmeticError.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "FracParams",
    "gamma_fn",
    "gauss_2f1",
    "coeff_c",
    "coeff_mu",
    "coeff_eta",
]


@dataclass(frozen=True)
class FracParams:
    """Dimension and fractional order of the operator (-Delta)^(alpha/2)."""

    d: int
    alpha: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("dimension d must be 1 or 2, got %r" % (self.d,))
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("fractional order alpha must lie in (0, 2), got %r"
                             % (self.alpha,))
        if self.d == 1 and self.alpha == 1.0:
            # d - alpha = 0 is an even integer; the pseudo-spectral identity
            # behind the whole method does not cover this pair.
            raise ValueError("the pair d=1, alpha=1 is not admissible")


def _is_nonpositive_int(x):
    return x <= 0.0 and x == math.floor(x)


def _finite(value, what):
    if not np.all(np.isfinite(value)):
        raise ArithmeticError(f"{what} is not finite")
    return value


def gamma_fn(x):
    """Gamma function of a real argument; poles raise ValueError and an
    overflowing value (x above about 171.6) raises ArithmeticError."""
    x = float(x)
    if _is_nonpositive_int(x):
        raise ValueError("gamma pole at nonpositive integer x=%g" % x)
    return _finite(float(special.gamma(x)), "gamma(%g)" % x)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric function 2F1(a, b; c; z) for z in [0, 1).

    z may be an array; the result then has its shape. A value scipy cannot
    compute (it returns NaN or inf) raises ArithmeticError.
    """
    a, b, c = float(a), float(b), float(c)
    z = np.asarray(z, dtype=float)
    if _is_nonpositive_int(c):
        raise ValueError("2F1 parameter c must not be a nonpositive integer")
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise ValueError("2F1 argument z outside [0, 1)")
    vals = _finite(special.hyp2f1(a, b, c, z), "2F1(%g, %g; %g; z)" % (a, b, c))
    return float(vals) if vals.ndim == 0 else vals


def coeff_c(p):
    """Normalizing constant of the singular-integral operator definition."""
    d, alpha = p.d, p.alpha
    return (2.0 ** alpha * gamma_fn((alpha + d) / 2.0)
            / (math.pi ** (d / 2.0) * abs(gamma_fn(-alpha / 2.0))))


def coeff_mu(p):
    """Multiplier mapping the basis profile to its fractional Laplacian."""
    d, alpha = p.d, p.alpha
    return 2.0 ** alpha * gamma_fn((d + alpha) / 2.0) / gamma_fn((d - alpha) / 2.0)


def coeff_eta(p):
    """Coefficient pair of the alternative (shifted-exponent) identity."""
    d, alpha = p.d, p.alpha
    if not alpha < d + 2:
        raise ValueError("alternative identity requires alpha < d + 2")
    g_top = gamma_fn((d + alpha) / 2.0)
    g_bot = gamma_fn((d - alpha) / 2.0 + 1.0)
    eta1 = -alpha * 2.0 ** (alpha - 1.0) * g_top / g_bot
    eta2 = 2.0 ** alpha * gamma_fn((d + alpha) / 2.0 + 1.0) / g_bot
    return eta1, eta2
