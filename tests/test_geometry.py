"""Point layouts, the interior-first partition, and the separation q that
a PointSet derives from its points."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracrbf.geometry import PointSet, clipped_grid, disk_grid, polar_layout, uniform_interval


def test_clipped_grid_half_width_validation():
    clipped_grid(0.25, np.sqrt(2.0) / 2.0)
    with pytest.raises(ValueError):
        clipped_grid(0.25, 0.0)
    with pytest.raises(ValueError):
        clipped_grid(0.25, 0.9)


def test_uniform_interval_layout():
    ps = uniform_interval(6)
    assert ps.n_total == 6
    assert ps.n_interior == 4
    # interior ascending, endpoints last
    assert np.allclose(ps.interior.ravel(), [-0.6, -0.2, 0.2, 0.6])
    assert np.allclose(np.sort(ps.boundary.ravel()), [-1.0, 1.0])
    assert ps.spacing == pytest.approx(0.4)
    with pytest.raises(ValueError):
        uniform_interval(2)


@settings(max_examples=30, deadline=None)
@given(L=st.integers(1, 7), J=st.integers(1, 9))
def test_polar_layout_counts(L, J):
    ps = polar_layout(L, J)
    assert ps.n_total == 1 + L * (J + 1)
    assert ps.n_interior == 1 + (L - 1) * (J + 1)
    r = np.linalg.norm(ps.points, axis=1)
    assert np.all(r[: ps.n_interior] < 1.0 - 1e-12)
    assert np.allclose(np.linalg.norm(ps.boundary, axis=1), 1.0, atol=1e-14)


def test_polar_layout_mesh_stats():
    ps = polar_layout(3, 3)
    assert ps.n_total == 13 and ps.n_interior == 9
    assert ps.q == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_disk_grid_counts():
    # lattice-plus-ring construction; these totals are the published sweep
    totals, interiors = [], []
    for h in (0.5, 0.25, 0.125, 0.0625, 0.03125):
        ps = disk_grid(h)
        totals.append(ps.n_total)
        interiors.append(ps.n_interior)
    assert totals == [13, 53, 209, 825, 3269]
    assert interiors == [9, 45, 193, 793, 3205]
    with pytest.raises(ValueError):
        disk_grid(0.6)


def test_clipped_grid_disk():
    ps = clipped_grid(0.25)
    assert ps.n_total == 49 and ps.n_interior == 45
    r = np.linalg.norm(ps.points, axis=1)
    assert np.all(r <= 1.0 + 1e-12)
    assert np.all(r[: ps.n_interior] < 1.0 - 1e-12)


def test_clipped_grid_embedded():
    w = np.sqrt(2.0) / 2.0
    ps = clipped_grid(1.0 / 32.0, w)
    assert ps.n_total == 3209 and ps.n_interior == 2025
    inner = ps.interior
    assert np.all(np.max(np.abs(inner), axis=1) < w)
    collar = ps.boundary
    on_or_out = np.max(np.abs(collar), axis=1) >= w - 1e-12
    assert np.all(on_or_out)


def test_point_set_partition_and_guards():
    pts = np.array([[0.0], [0.5], [-1.0], [1.0]])
    ps = PointSet(pts, 2)
    assert ps.interior.shape == (2, 1)
    assert ps.boundary.shape == (2, 1)
    # q is derived from the points, never passed in
    assert ps.q == 0.25
    with pytest.raises(ValueError):
        PointSet(pts, 5)


def test_point_set_rejects_repeated_or_too_few_points():
    with pytest.raises(ValueError, match="distinct"):
        PointSet(np.array([[0.1], [0.1], [0.5]]), 3)
    with pytest.raises(ValueError, match="at least 2"):
        PointSet(np.array([[0.1]]), 1)
