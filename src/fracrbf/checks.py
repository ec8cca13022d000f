"""`fracrbf verify`: the suite `CHECKS` and the hypersingular oracle, the
second route to the closed-form identities. The oracle never calls the
solver-side kernels; it evaluates the defining singular integral directly
(singularity subtraction inside a small ball, compactified adaptive
quadrature outside). This is the only module that imports
`scipy.integrate`; the CLI imports it only when `verify` runs.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from fracrbf.geometry import as_points, polar_layout, uniform_interval
from fracrbf.harness import rms_error
from fracrbf.linsys import assemble
from fracrbf.quadrature import gauss_legendre_01
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams, coeff_c, coeff_eta, coeff_mu, gauss_2f1

__all__ = ["CHECKS"]


# ---------------------------------------------------------------------------
# profile algebra


@dataclass(frozen=True)
class RadialPowerProfile:
    """Smooth radial function v(y) = sum_k a_k (A_k + B_k |y-c|^2)^beta_k.

    The family is closed under the Laplacian, which is what makes exact
    Taylor coefficients available to the singularity subtraction. The
    oracle asks the profile for the three steps that depend on where it is
    smooth: `split_radius`, `sphere_mean` and `outer_integral`.
    """

    center: np.ndarray
    terms: tuple  # of (coef, A, B, beta)

    @property
    def d(self):
        return self.center.shape[0]

    def value(self, points):
        pts = as_points(points, self.d)
        r2 = np.sum((pts - self.center) ** 2, axis=-1)
        out = np.zeros_like(r2)
        for coef, a, b, beta in self.terms:
            out += coef * (a + b * r2) ** beta
        return out

    def laplacian(self):
        """Exact Laplacian, valid wherever the profile is smooth."""
        d = self.d
        new_terms = []
        for coef, a, b, beta in self.terms:
            if beta == 0.0 or coef == 0.0:
                continue
            new_terms.append((coef * b * (2.0 * d * beta + 4.0 * beta * (beta - 1.0)),
                              a, b, beta - 1.0))
            if beta != 1.0:
                new_terms.append((-coef * 4.0 * a * b * beta * (beta - 1.0),
                                  a, b, beta - 2.0))
        return dataclasses.replace(self, terms=tuple(new_terms))

    def split_radius(self, x):
        """Radius splitting the oracle's inner ball from its outer integral."""
        return 0.5

    def sphere_mean(self, x, rhos):
        """Mean of the profile over the sphere of radius rho around x."""
        rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
        if self.d == 1:
            up = self.value(x[None, :] + rhos[:, None])
            dn = self.value(x[None, :] - rhos[:, None])
            return 0.5 * (up + dn)
        R = float(np.linalg.norm(x - self.center))
        out = np.zeros_like(rhos)
        for i, rho in enumerate(rhos):
            for coef, a, b, beta in self.terms:
                out[i] += _circle_mean_term(coef, a, b, beta, R, rho)
        return out

    def outer_integral(self, x, r0, alpha):
        """Integral over (r0, inf) of the sphere mean times rho^(-1-alpha)."""
        return sum(_outer_smooth_term(term, alpha, self.center, x, r0) for term in self.terms)


def gmq_profile(d, alpha, eps):
    """Basis profile (eps^2 + |y|^2)^((alpha-d)/2)."""
    return RadialPowerProfile(np.zeros(d), ((1.0, eps * eps, 1.0, (alpha - d) / 2.0),))


# ---------------------------------------------------------------------------
# composite Gauss panels and spherical means

_NODES32, _WEIGHTS32 = gauss_legendre_01(32)


def _gauss_panels(f, edges):
    """Integrate a vectorized f over consecutive [edges] with 32-pt Gauss."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    width = hi - lo
    x = (lo[:, None] + width[:, None] * _NODES32[None, :]).ravel()
    w = (width[:, None] * _WEIGHTS32[None, :]).ravel()
    return float(np.dot(f(x), w))


def _circle_mean_term(coef, a, b, beta, R, rho):
    """Angular mean of one smooth 2D term over the circle {x + rho*sigma},
    R the distance from x to the profile center: an equispaced rule
    doubled until stable."""
    u0 = a + b * (R * R + rho * rho)
    v0 = 2.0 * b * rho * R
    m = 64
    prev = None
    while m <= 8192:
        theta = 2.0 * np.pi * np.arange(m) / m
        val = coef * float(np.mean((u0 + v0 * np.cos(theta)) ** beta))
        if prev is not None and abs(val - prev) <= 1e-13 * (abs(val) + 1e-300):
            return val
        prev = val
        m *= 2
    return prev


# ---------------------------------------------------------------------------
# the hypersingular oracle


def _outer_smooth_term(term, alpha, profile_center, x, r0):
    """Integral over (r0, inf) of the term's sphere mean times rho^(-1-alpha).

    Compactified with rho = r0/s; the integrand is fs(s) * s^gamma with
    gamma = alpha - 1 - 2*beta and fs smooth, handled by weighted (QAWS)
    adaptive quadrature.
    """
    coef, a, b, beta = term
    gamma = alpha - 1.0 - 2.0 * beta
    if gamma <= -1.0:
        raise ValueError("profile decays too slowly for a finite tail integral")
    term_profile = RadialPowerProfile(profile_center, (term,))

    def fs(s):
        if s <= 0.0:
            return coef * b ** beta * r0 ** (2.0 * beta)
        rho = r0 / s
        return float(term_profile.sphere_mean(x, np.array([rho]))[0]) * s ** (2.0 * beta)

    val, _ = integrate.quad(fs, 0.0, 1.0, weight="alg", wvar=(gamma, 0.0),
                            epsabs=1e-13, epsrel=1e-11, limit=200)
    return r0 ** (-alpha) * val


def hypersingular_oracle(v, d, alpha, x):
    """Directly evaluate c_{d,alpha} PV int (v(x)-v(y)) / |x-y|^(d+alpha) dy.

    The integral is written radially through sphere means, split at the
    profile's split radius r0: inside, the mean-value expansion
    M(rho) = v(x) + a2 rho^2 + a4 rho^4 + ... (a2, a4 from the profile's
    exact iterated Laplacians) is subtracted so the integrand is
    O(rho^(5-alpha)) and free of cancellation blow-up; outside, the
    profile's own outer integral takes over.
    """
    x = as_points(x, d)[0]
    params = FracParams(d, alpha)
    c = coeff_c(params)
    omega = 2.0 if d == 1 else 2.0 * math.pi

    r0 = v.split_radius(x)
    vx = float(v.value(x)[0])
    lap1 = v.laplacian()
    lap2 = lap1.laplacian()
    a2 = float(lap1.value(x)[0]) / (2.0 * d)
    a4 = float(lap2.value(x)[0]) / (8.0 * d * (d + 2.0))

    # inner ball: subtracted integrand, panels refined toward 0 but not
    # entering the region where floating-point cancellation noise would
    # dominate rho^(-1-alpha)
    def inner_f(rho):
        mean = v.sphere_mean(x, rho)
        return (vx - mean + a2 * rho ** 2 + a4 * rho ** 4) * rho ** (-1.0 - alpha)

    edges = r0 * np.array([1e-3, 1e-2, 0.1, 0.4, 1.0])
    inner = _gauss_panels(inner_f, edges)
    inner -= a2 * r0 ** (2.0 - alpha) / (2.0 - alpha)
    inner -= a4 * r0 ** (4.0 - alpha) / (4.0 - alpha)

    # outer part: v(x) tail minus the mean integral
    outer = vx * r0 ** (-alpha) / alpha - v.outer_integral(x, r0, alpha)

    return c * omega * (inner + outer)


# ---------------------------------------------------------------------------
# verification checks: each returns its worst deviation


def _gauss_gap():
    """Worst absolute error of the K-point Gauss rule on x^m, m < 2K."""
    worst = 0.0
    for k in (1, 2, 4, 8, 16, 32):
        nodes, weights = gauss_legendre_01(k)
        degs = np.arange(2 * k)
        vals = weights @ np.power.outer(nodes, degs)
        worst = max(worst, float(np.max(np.abs(vals - 1.0 / (degs + 1.0)))))
    return worst


def _hypergeometric_gap():
    """Worst absolute error of gauss_2f1 against 2F1(1,1;2;z) = -log(1-z)/z
    and 2F1(a,b;b;z) = (1-z)^-a. Every reference is >= 1, so the absolute
    error also bounds the relative one."""
    worst = 0.0
    for z in np.linspace(0.05, 0.95, 19):
        worst = max(worst, abs(gauss_2f1(1.0, 1.0, 2.0, z) + np.log1p(-z) / z))
        for a in (0.3, 1.7, 2.5):
            for b in (0.6, 0.8, 1.9):
                worst = max(worst, abs(gauss_2f1(a, b, b, z) - (1.0 - z) ** (-a)))
    return worst


def _identity_gap(profile, coeffs):
    """Worst relative gap between the hypersingular integral of
    profile(d, alpha, eps=1) and its closed-form image c1 w^p + c2 w^(p-1),
    w = 1+|x|^2, p = -(alpha+d)/2, (c1, c2) = coeffs(params), for every
    admissible (d, alpha) at points along the first axis (offsets 0..0.9)
    and the diagonal (offsets 0, 0.31, 0.57)."""
    worst = 0.0
    for d in (1, 2):
        for alpha in (0.4, 0.8, 1.0, 1.2, 1.6):
            if d == 1 and alpha == 1.0:
                continue
            c1, c2 = coeffs(FracParams(d, alpha))
            power = -(alpha + d) / 2.0
            prof = profile(d, alpha, 1.0)
            for x in ([r * np.eye(d)[0] for r in np.linspace(0.0, 0.9, 10)]
                      + [np.full(d, off) for off in (0.0, 0.31, 0.57)]):
                w = 1.0 + x @ x
                ref = c1 * w ** power + c2 * w ** (power - 1.0)
                got = hypersingular_oracle(prof, d, alpha, x)
                worst = max(worst, abs(got - ref) / abs(ref))
    return worst


def _closed_form_gap():
    """The basis profile's image is mu w^p."""
    return _identity_gap(gmq_profile, lambda prm: (coeff_mu(prm), 0.0))


def _shifted_exponent_gap():
    """The shifted-exponent profile, the basis profile at alpha-2, has the
    image eta1 w^p + eta2 w^(p-1)."""
    return _identity_gap(lambda d, alpha, eps: gmq_profile(d, alpha - 2.0, eps), coeff_eta)


def _manufactured_solves(seed):
    """(S, b = S lam*, lam*, computed lam) per layout; each layout draws
    lam* from a fresh generator seeded with `seed`. The solve factors S in
    its own buffer, so the S yielded is a copy taken before it."""
    for ps, d in ((uniform_interval(10), 1), (uniform_interval(12), 1), (polar_layout(3, 7), 2)):
        sm = assemble(ps, GmqBasis(ps.points, FracParams(d, 1.2), 1.0, K=32, M=48))
        lam_star = np.random.default_rng(seed).standard_normal(ps.n_total)
        s = sm.s.copy()
        b = s @ lam_star
        yield s, b, lam_star, sm.solve(b)


def _manufactured_gap(seed=11):
    """Worst relative error recovering random coefficients lam* from S lam*.
    It is bounded by about cond(S) times the backward error below."""
    return max(float(np.linalg.norm(lam - lam_star) / np.linalg.norm(lam_star))
               for _, _, lam_star, lam in _manufactured_solves(seed))


def _manufactured_backward_error(seed=11):
    """Worst normwise backward error of the same solves in units of n*u,
    u = 2^-53: ||S lam - b|| / ((||S|| ||lam|| + ||b||) n u) in the inf-norm."""
    inf = lambda v: float(np.linalg.norm(v, np.inf))
    return max(inf(s @ lam - b) / ((inf(s) * inf(lam) + inf(b)) * s.shape[0] * 2.0 ** -53)
               for s, b, _, lam in _manufactured_solves(seed))


def _rms_examples_gap():
    """Deviation of rms_error from two hand-computed values."""
    return max(abs(rms_error([1.0, 0.0], [0.0, 0.0]) - 1.0),
               abs(rms_error([3.0, 4.0], [3.0, 0.0]) - 0.8))


# (name, check, tolerance) behind `fracrbf verify` and acceptance criteria
# 1, 2, 7 and 8; a check passes when its worst deviation is <= tolerance
CHECKS = (
    ("gauss-exactness", _gauss_gap, 1e-13),
    ("hypergeometric-closed-forms", _hypergeometric_gap, 1e-10),
    ("closed-form-identity", _closed_form_gap, 1e-4),
    ("shifted-exponent-identity", _shifted_exponent_gap, 1e-4),
    ("manufactured-coefficients", _manufactured_gap, 1e-10),
    ("manufactured-backward-error", _manufactured_backward_error, 1.0),
    ("rms-error-examples", _rms_examples_gap, 1e-15),
)
