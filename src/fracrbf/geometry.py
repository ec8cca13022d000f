"""Domains, collocation point sets, and mesh-quality statistics.

Point ordering contract used by every downstream matrix: equation points
first (indices 0..n_interior-1), zero-value points last. Equation points
are strictly inside the PDE domain; zero-value points sit on its boundary
(interval / disk) or fill the disk-minus-domain collar (embedded mode).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "Domain",
    "PointSet",
    "uniform_interval",
    "polar_layout",
    "clipped_grid",
    "disk_grid",
    "mesh_stats",
]

_TOL = 1e-12


@dataclass(frozen=True)
class Domain:
    """PDE domain: the interval (-1,1), the open unit disk, or a square
    of half-width w embedded in the unit disk (w*sqrt(2) <= 1)."""

    kind: str
    half_width: float = 0.0

    def __post_init__(self):
        if self.kind not in ("interval", "disk", "embedded"):
            raise ValueError("kind must be interval, disk, or embedded")
        if self.kind == "embedded":
            w = self.half_width
            if not 0.0 < w or w * np.sqrt(2.0) > 1.0 + _TOL:
                raise ValueError("embedded square must satisfy 0 < w <= sqrt(2)/2")

    @property
    def dim(self):
        return 1 if self.kind == "interval" else 2


@dataclass(frozen=True)
class PointSet:
    """Ordered collocation points with the interior-first partition.

    q (half the minimal pairwise distance) is stored; the fill distance h
    and the ratio rho = h/q are report-only and computed on first access.
    """

    points: np.ndarray
    n_interior: int
    domain: Domain
    q: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if not 0 <= self.n_interior <= pts.shape[0]:
            raise ValueError("n_interior out of range")

    @property
    def n_total(self):
        return self.points.shape[0]

    @property
    def interior(self):
        return self.points[: self.n_interior]

    @property
    def boundary(self):
        return self.points[self.n_interior:]

    @property
    def spacing(self):
        """Nominal node spacing 2q; the knob eps-factor modes scale from."""
        return 2.0 * self.q

    @cached_property
    def h(self):
        """Fill distance, sampled on a grid 10x finer than q."""
        return _fill_distance(cKDTree(self.points), self.q, self.domain)

    @property
    def rho(self):
        """Mesh ratio h/q."""
        return self.h / self.q


def _finish(points, n_interior, domain):
    _, q = _separation(points)
    return PointSet(points, n_interior, domain, q)


def uniform_interval(n):
    """n equispaced points on [-1,1] incl endpoints; the endpoints are the
    two zero-value points, so n_interior = n-2."""
    if n < 3:
        raise ValueError("need n >= 3")
    grid = np.linspace(-1.0, 1.0, n)
    pts = np.concatenate([grid[1:-1], [-1.0, 1.0]])[:, None]
    return _finish(pts, n - 2, Domain("interval"))


def polar_layout(L, J):
    """Concentric rings on the unit disk: radii l/L for l=0..L, each ring
    carrying J+1 equal angles; the origin ring collapses to one point.

    N = L(J+1)+1; the l=L ring is the zero-value (boundary) set.
    """
    if L < 1 or J < 1:
        raise ValueError("need L >= 1 and J >= 1")
    angles = 2.0 * np.pi * np.arange(J + 1) / (J + 1)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    rows = [np.zeros((1, 2))]
    for l in range(1, L + 1):
        rows.append(ring * (l / L))
    pts = np.vstack(rows)
    return _finish(pts, 1 + (L - 1) * (J + 1), Domain("disk"))


def clipped_grid(h, domain):
    """Uniform grid of step h over [-1,1]^2, clipped to the closed unit disk.

    disk domain: points strictly inside carry the equation, points landing
    exactly on the circle are zero-value. embedded domain: points strictly
    inside the open square carry the equation, the rest of the clipped grid
    (the disk collar and the square's edge) are zero-value points.
    """
    if not 0.0 < h <= 1.0:
        raise ValueError("need 0 < h <= 1")
    if domain.kind == "interval":
        raise ValueError("clipped_grid is a 2D layout")
    k = np.arange(int(round(2.0 / h)) + 1)
    coords = -1.0 + k * h
    coords = coords[coords <= 1.0 + _TOL]
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    r2 = np.sum(pts * pts, axis=1)
    pts = pts[r2 <= 1.0 + _TOL]
    r2 = np.sum(pts * pts, axis=1)
    if domain.kind == "disk":
        inner = r2 < 1.0 - _TOL
    else:
        w = domain.half_width
        inner = np.max(np.abs(pts), axis=1) < w - _TOL
    if not np.any(inner):
        raise ValueError("grid too coarse: no interior points")
    pts = np.vstack([pts[inner], pts[~inner]])
    return _finish(pts, int(np.count_nonzero(inner)), domain)


def disk_grid(h):
    """Uniform grid strictly inside the unit disk plus an equispaced ring
    of round(2/h) circle points as the zero-value set.

    Reproduces the point counts 13, 53, 209, 825, 3269 for h = 2^-k.
    """
    if not 0.0 < h <= 0.5:
        raise ValueError("need 0 < h <= 1/2")
    k = np.arange(int(round(2.0 / h)) + 1)
    coords = -1.0 + k * h
    coords = coords[coords <= 1.0 + _TOL]
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    inside = pts[np.sum(pts * pts, axis=1) < 1.0 - _TOL]
    m = int(round(2.0 / h))
    angles = 2.0 * np.pi * np.arange(m) / m
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    return _finish(np.vstack([inside, ring]), inside.shape[0], Domain("disk"))


def mesh_stats(ps, domain=None):
    """(h, q, rho): fill distance, half the minimal pairwise distance, ratio.

    The supremum behind h is approximated on a sample grid 10x finer than q.
    h and rho are report-only: no solver reads them, and a PointSet computes
    them on first access. eps-factor modes scale ps.spacing = 2q instead.
    """
    tree, q = _separation(ps.points)
    h = _fill_distance(tree, q, ps.domain if domain is None else domain)
    return h, q, h / q


def _separation(pts):
    """k-d tree of the points and q; rejects repeated points."""
    if pts.shape[0] < 2:
        raise ValueError("mesh statistics need at least 2 points")
    tree = cKDTree(pts)
    dist, _ = tree.query(pts, k=2)
    nearest = dist[:, 1]
    if np.min(nearest) <= 0.0:
        raise ValueError("points must be distinct")
    return tree, 0.5 * float(np.min(nearest))


def _fill_distance(tree, q, domain):
    step = q / 10.0
    if domain.kind == "interval":
        m = int(np.ceil(2.0 / step))
        samples = np.linspace(-1.0, 1.0, m + 1)[:, None]
    else:
        if domain.kind == "embedded":
            w = domain.half_width
            m = int(np.ceil(2.0 * w / step))
            axis = np.linspace(-w, w, m + 1)
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            samples = np.column_stack([xx.ravel(), yy.ravel()])
        else:
            m = int(np.ceil(2.0 / step))
            axis = np.linspace(-1.0, 1.0, m + 1)
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            samples = np.column_stack([xx.ravel(), yy.ravel()])
            samples = samples[np.sum(samples * samples, axis=1) <= 1.0]
    return float(np.max(tree.query(samples, k=1)[0]))
