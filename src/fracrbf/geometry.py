"""Collocation point sets: interval, polar and lattice layouts.

Point ordering contract used by every downstream matrix: equation points
first (indices 0..n_interior-1), zero-value points last. Equation points
are strictly inside the PDE domain; zero-value points sit on its boundary
(interval / disk) or fill the disk-minus-domain collar (embedded mode).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "as_points",
    "PointSet",
    "uniform_interval",
    "polar_layout",
    "clipped_grid",
    "disk_grid",
    "orbits",
]

_TOL = 1e-12
# D4, the square's quarter turns and reflections, as matrices acting on row points
_D4 = np.array([m for c, s in ((1, 0), (0, 1), (-1, 0), (0, -1))
                for m in ([[c, s], [-s, c]], [[c, s], [s, -c]])], float)


def as_points(x, d):
    """x as an (n, d) float array of points: a scalar or a flat array is
    read as consecutive d-vectors, a 2-D array must already have d columns,
    and anything else raises ValueError."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim <= 1 and pts.size % d == 0:
        return pts.reshape(-1, d)
    if pts.ndim == 2 and pts.shape[1] == d:
        return pts
    raise ValueError(f"points of shape {pts.shape} do not have {d} columns")


@dataclass(frozen=True)
class PointSet:
    """Ordered collocation points with the interior-first partition.

    q, half the minimal pairwise distance, is derived from the points;
    repeated points or fewer than two points are rejected.
    """

    points: np.ndarray
    n_interior: int
    q: float = field(init=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if not 0 <= self.n_interior <= pts.shape[0]:
            raise ValueError("n_interior out of range")
        object.__setattr__(self, "q", _separation(pts))

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


def uniform_interval(n):
    """n equispaced points on [-1,1] incl endpoints; the endpoints are the
    two zero-value points, so n_interior = n-2."""
    if n < 3:
        raise ValueError("need n >= 3")
    grid = np.linspace(-1.0, 1.0, n)
    pts = np.concatenate([grid[1:-1], [-1.0, 1.0]])[:, None]
    return PointSet(pts, n - 2)


def polar_layout(L, J):
    """Concentric rings on the unit disk: radii l/L for l=0..L, each ring
    carrying J+1 equal angles; the origin ring collapses to one point.

    N = L(J+1)+1; the l=L ring is the zero-value (boundary) set.
    """
    if L < 1 or J < 1:
        raise ValueError("need L >= 1 and J >= 1")
    rings = [_ring(J + 1) * (l / L) for l in range(1, L + 1)]
    return PointSet(np.vstack([np.zeros((1, 2))] + rings), 1 + (L - 1) * (J + 1))


def _ring(m):
    """The m unit vectors at the angles 2 pi k / m, k = 0..m-1."""
    angles = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _lattice(h):
    """Points of the uniform grid of step h over [-1,1]^2."""
    k = np.arange(int(round(2.0 / h)) + 1)
    coords = -1.0 + k * h
    coords = coords[coords <= 1.0 + _TOL]
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def clipped_grid(h):
    """Uniform grid of step h over [-1,1]^2, clipped to the closed unit disk,
    for the square of half-width sqrt(2)/2 inscribed in the disk: points
    strictly inside the open square carry the equation, the rest of the
    clipped grid (the disk collar and the square's edge) are zero-value
    points."""
    if not 0.0 < h <= 1.0:
        raise ValueError("need 0 < h <= 1")
    pts = _lattice(h)
    pts = pts[np.sum(pts * pts, axis=1) <= 1.0 + _TOL]
    inner = np.max(np.abs(pts), axis=1) < np.sqrt(2.0) / 2.0 - _TOL
    if not np.any(inner):
        raise ValueError("grid too coarse: no interior points")
    pts = np.vstack([pts[inner], pts[~inner]])
    return PointSet(pts, int(np.count_nonzero(inner)))


def disk_grid(h):
    """Uniform grid strictly inside the unit disk plus an equispaced ring
    of round(2/h) circle points as the zero-value set.

    Reproduces the point counts 13, 53, 209, 825, 3269 for h = 2^-k.
    """
    if not 0.0 < h <= 0.5:
        raise ValueError("need 0 < h <= 1/2")
    pts = _lattice(h)
    inside = pts[np.sum(pts * pts, axis=1) < 1.0 - _TOL]
    return PointSet(np.vstack([inside, _ring(int(round(2.0 / h)))]), inside.shape[0])


def orbits(ps, M):
    """The orbit of each point of ps under the largest subgroup of D4 (of
    x -> +-x on the interval) that maps ps onto itself within _TOL, interior
    points onto interior points, and the tail rule's directions (M angles on
    the disk, +-1 on the interval) onto themselves. Orbits are numbered by
    their smallest point index: 0..n_total-1 without symmetry."""
    group, dirs = ((_D4, _ring(M)) if ps.points.shape[1] == 2
                   else (np.array([[[1.0]], [[-1.0]]]), np.array([[1.0], [-1.0]])))
    # the directions, at radius 2, can match only each other
    pts = np.vstack([ps.points, 2.0 * dirs])
    kind = np.repeat([0, 1, 2], [ps.n_interior, ps.n_total - ps.n_interior, len(dirs)])
    tree, images = cKDTree(pts), []
    for g in group:
        dist, image = tree.query(pts @ g)
        if np.all(dist <= _TOL) and np.array_equal(kind[image], kind):
            images.append(image[:ps.n_total])
    return np.unique(np.min(images, axis=0), return_inverse=True)[1]


def _separation(pts):
    """q, half the minimal pairwise distance; rejects repeated points."""
    if pts.shape[0] < 2:
        raise ValueError("a point set needs at least 2 points")
    dist, _ = cKDTree(pts).query(pts, k=2)
    nearest = dist[:, 1]
    if np.min(nearest) <= 0.0:
        raise ValueError("points must be distinct")
    return 0.5 * float(np.min(nearest))
