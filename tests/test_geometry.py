"""Point layouts, the interior-first partition, the separation q that
a PointSet derives from its points, and the symmetry orbits of a layout."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracrbf.exterior import GmqProfile, tail_factors_at
from fracrbf.geometry import (PointSet, as_points, clipped_grid, disk_grid, orbits,
                              polar_layout, uniform_interval)
from fracrbf.oracles import case1
from fracrbf.rbf import GmqBasis, phi_block
from fracrbf.specialfun import FracParams
from reference import symmetry_group_ref, tail_matrix_ref


def test_clipped_grid_step_validation():
    clipped_grid(0.25)
    with pytest.raises(ValueError):
        clipped_grid(0.0)
    with pytest.raises(ValueError):
        clipped_grid(1.5)


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


def test_clipped_grid_embedded():
    w = np.sqrt(2.0) / 2.0
    ps = clipped_grid(1.0 / 32.0)
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


@pytest.mark.parametrize("x, d, shape", [
    (0.3, 1, (1, 1)),
    (np.array([0.1, -0.4, 0.7]), 1, (3, 1)),
    (np.array([0.1, -0.4]), 2, (1, 2)),
    (np.array([[0.1], [-0.4], [0.7]]), 1, (3, 1)),
    (np.array([[0.1, 0.2], [-0.4, 0.5]]), 2, (2, 2)),
    (np.array([[0.1, 0.2, 0.3]]), 2, None),
    (np.array([[0.1, 0.2], [0.3, 0.4]]), 1, None),
    (np.zeros((2, 2, 1)), 1, None),
], ids=["scalar", "flat-1d", "flat-2d", "column", "right-width", "wrong-width",
        "wrong-width-1d", "three-dims"])
def test_as_points(x, d, shape):
    if shape is None:
        with pytest.raises(ValueError):
            as_points(x, d)
        return
    pts = as_points(x, d)
    assert pts.shape == shape
    assert np.array_equal(pts.ravel(), np.ravel(x))
    if d == 1:
        # every consumer of 1D points reads flat, scalar and column input alike
        col = pts.copy()
        basis = GmqBasis(np.array([-0.5, 0.0, 0.6]), FracParams(1, 1.2), 0.9, K=8)
        g = GmqProfile(np.zeros(1), 1.0, -1.0)
        assert np.array_equal(phi_block(basis, x), phi_block(basis, col))
        assert np.array_equal(tail_matrix_ref(tail_factors_at(x, basis)),
                              tail_matrix_ref(tail_factors_at(col, basis)))
        assert np.array_equal(g.value(x), g.value(col))
        assert np.array_equal(np.ravel(case1(1, 1.2, x)), np.ravel(case1(1, 1.2, col)))


# every preset layout, with the tail rule's M of its presets: N, the order of
# its largest symmetry subgroup of D4 and its orbit count
@pytest.mark.parametrize("ps, M, n, order, n_orbits", [
    (clipped_grid(1.0 / 32.0), 64, 3209, 8, 429),
    (disk_grid(1.0 / 32.0), 64, 3269, 8, 437),
    (disk_grid(1.0 / 16.0), 64, 825, 8, 118),
    (polar_layout(3, 3), 96, 13, 8, 4),
    (polar_layout(7, 7), 96, 57, 8, 15),
    (polar_layout(11, 11), 96, 133, 8, 23),
    (polar_layout(5, 5), 96, 31, 4, 11),
    (polar_layout(9, 9), 96, 91, 4, 28),
    (polar_layout(10, 10), 96, 111, 2, 61),
    (polar_layout(8, 8), 64, 73, 2, 41),
    (uniform_interval(7), 64, 7, 2, 4),
    (uniform_interval(258), 64, 258, 2, 129),
], ids=["fig-square", "table6-1/32", "fig-qg", "table5-3", "table5-7", "table5-11",
        "table5-5", "table5-9", "fig-disk", "fig-mixed", "interval-7", "table4-256"])
def test_orbits_of_the_preset_layouts(ps, M, n, order, n_orbits):
    group = symmetry_group_ref(ps, M)
    orbit = orbits(ps, M)
    assert (ps.n_total, len(group), orbit.max() + 1) == (n, order, n_orbits)
    # the orbits are the brute-force group's, each numbered by its smallest index
    assert np.array_equal(orbit, np.unique(np.min(group, axis=0), return_inverse=True)[1])
    assert np.all(np.diff(np.unique(orbit, return_index=True)[1]) > 0)
    # and no orbit mixes interior and boundary points
    assert not set(orbit[:ps.n_interior]) & set(orbit[ps.n_interior:])


@pytest.mark.parametrize("M, order, n_orbits", [(64, 8, 34), (30, 4, 61), (63, 2, 113)])
def test_orbits_keep_only_the_elements_that_fix_the_tail_rule(M, order, n_orbits):
    # the quarter turns and the diagonal reflections map the angles 2 pi k/M
    # onto themselves only when 4 divides M, the half turn and x1 -> -x1 only
    # when M is even; x2 -> -x2 always does
    ps = disk_grid(0.125)
    assert len(symmetry_group_ref(ps, M)) == order
    assert orbits(ps, M).max() + 1 == n_orbits
    assert orbits(uniform_interval(9), M).max() + 1 == 5


def test_point_sets_without_symmetry_get_singleton_orbits():
    # a jitter of up to 4 ulp, as tests/perturb.py draws it, keeps the group
    # within the matching tolerance; a jitter of 1e-6 leaves none
    ps = disk_grid(0.125)
    rng = np.random.default_rng(5)
    pts = ps.points.copy()
    pts[:ps.n_interior] += rng.integers(-4, 5, (ps.n_interior, 2)) * np.spacing(ps.interior)
    assert orbits(PointSet(pts, ps.n_interior), 64).max() + 1 == 34
    pts[:ps.n_interior] += 1e-6 * rng.standard_normal((ps.n_interior, 2))
    assert np.array_equal(orbits(PointSet(pts, ps.n_interior), 64), np.arange(ps.n_total))
    # x -> -x maps the points onto themselves but an interior point onto a
    # boundary point
    relabeled = PointSet(np.array([[-0.6], [-0.2], [0.2], [-1.0], [1.0], [0.6]]), 3)
    assert np.array_equal(orbits(relabeled, 64), np.arange(6))
