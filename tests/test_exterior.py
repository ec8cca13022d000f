"""Exterior tail integrals: factored quadrature against adaptive references."""

import numpy as np
import pytest

from fracrbf import exterior
from fracrbf.exterior import GmqProfile, exterior_data_correction, tail_factors_at
from fracrbf.geometry import clipped_grid, polar_layout, uniform_interval
from fracrbf.quadrature import gauss_legendre_01
from fracrbf.checks import RadialPowerProfile
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams
from reference import tail_added_ref, tail_factors_ref, tail_matrix_ref, tail_oracle


def _oracle_profile(d, eps, beta, center):
    c = np.atleast_1d(np.asarray(center, dtype=float))
    return RadialPowerProfile(c, ((1.0, eps * eps, 1.0, beta),))


def _assembled(tf):
    """The tail matrix of `tf`, added into a zero (rows x centers) buffer."""
    return tf.assemble(np.zeros((tf.b.shape[0], tf.c.shape[1])))


def _entry(x_i, x_j, eps, p, K, M=64):
    """One tail-matrix entry: one equation point, one center."""
    basis = GmqBasis(np.atleast_1d(np.asarray(x_j, dtype=float)), p, eps, K=K, M=M)
    return _assembled(tail_factors_at(np.asarray(x_i, dtype=float), basis))[0, 0]


def test_tail_entry_1d_against_adaptive_quadrature():
    p = FracParams(1, 1.2)
    eps = 0.9
    beta = (p.alpha - 1.0) / 2.0
    for x_i, x_j in ((0.0, 0.0), (0.4, -0.3), (-0.85, 0.6)):
        got = _entry(x_i, x_j, eps, p, K=24)
        ref = tail_oracle(_oracle_profile(1, eps, beta, [x_j]), 1, p.alpha,
                          np.array([x_i]))
        assert got == pytest.approx(ref, rel=1e-9)


def test_tail_entry_2d_against_adaptive_quadrature():
    p = FracParams(2, 1.0)
    eps = 1.1
    beta = (p.alpha - 2.0) / 2.0
    for x_i, x_j in (((0.0, 0.0), (0.0, 0.0)),
                     ((0.3, -0.2), (-0.4, 0.1)),
                     ((0.7, 0.5), (0.2, 0.6))):
        got = _entry(x_i, x_j, eps, p, K=24, M=128)
        ref = tail_oracle(_oracle_profile(2, eps, beta, x_j), 2, p.alpha,
                          np.array(x_i))
        assert got == pytest.approx(ref, rel=1e-8)


def test_tail_entries_need_interior_points():
    with pytest.raises(ValueError):
        _entry(1.0, 0.0, 1.0, FracParams(1, 1.2), K=10)
    with pytest.raises(ValueError):
        _entry((1.0, 0.0), (0.0, 0.0), 1.0, FracParams(2, 1.0), K=10)


def test_tail_rows_need_one_column_per_dimension():
    basis = GmqBasis(np.zeros((1, 2)), FracParams(2, 1.0), 1.0)
    with pytest.raises(ValueError):
        tail_factors_at(np.full((2, 3), 0.1), basis)


def test_factored_matrix_matches_entries():
    ps = uniform_interval(8)
    p = FracParams(1, 0.8)
    basis = GmqBasis(ps.points, p, 1.3, K=16)
    tf = tail_factors_at(ps.interior, basis)
    mat = _assembled(tf)
    assert mat.shape == (ps.n_interior, ps.n_total)
    for i in (0, 3):
        for j in (0, 5, 7):
            ref = _entry(ps.interior[i], ps.points[j], 1.3, p, K=16)
            assert mat[i, j] == pytest.approx(ref, rel=1e-13)


def test_factored_matrix_matches_entries_2d():
    ps = polar_layout(3, 5)
    p = FracParams(2, 1.2)
    basis = GmqBasis(ps.points, p, 0.9, K=12, M=48)
    tf = tail_factors_at(ps.interior, basis)
    mat = _assembled(tf)
    assert mat.shape == (ps.n_interior, ps.n_total)
    for i in (0, 4):
        for j in (0, 9):
            ref = _entry(ps.interior[i], ps.points[j], 0.9, p, K=12, M=48)
            assert mat[i, j] == pytest.approx(ref, rel=1e-13)


def test_tail_factors_at_arbitrary_points():
    ps = uniform_interval(8)
    basis = GmqBasis(ps.points, FracParams(1, 0.8), 1.3, K=16)
    pts = np.array([[0.11], [-0.62]])
    mat = _assembled(tail_factors_at(pts, basis))
    for i, x in enumerate(pts[:, 0]):
        for j in (1, 6):
            ref = _entry(x, ps.points[j], 1.3, basis.params, K=16)
            assert mat[i, j] == pytest.approx(ref, rel=1e-13)
    with pytest.raises(ValueError):
        tail_factors_at(np.array([[1.2]]), basis)


def test_exterior_correction_against_adaptive_quadrature():
    ps = polar_layout(3, 7)
    p = FracParams(2, 1.0)
    g = GmqProfile(np.zeros(2), 1.0, -1.5)
    vals = exterior_data_correction(g, ps.interior, GmqBasis(ps.points, p, 1.0, K=32, M=96))
    assert vals.shape == (ps.n_interior,)
    prof = _oracle_profile(2, 1.0, -1.5, [0.0, 0.0])
    for i in (0, 5, 12):
        ref = tail_oracle(prof, 2, p.alpha, ps.interior[i])
        assert vals[i] == pytest.approx(ref, rel=1e-8)


def test_exterior_correction_amplitude_and_points_kwarg():
    ps = uniform_interval(7)
    p = FracParams(1, 1.2)
    g1 = GmqProfile(np.zeros(1), 1.0, -1.2)
    pts = np.array([[0.2], [0.4]])
    c = exterior_data_correction(g1, pts, GmqBasis(ps.points, p, 1.0, K=24))
    assert c.shape == (2,)
    with pytest.raises(ValueError):
        exterior_data_correction(GmqProfile(np.zeros(1), 1.0, 0.7), ps.interior,
                                 GmqBasis(ps.points, p, 1.0))


def test_gmq_profile_values():
    g = GmqProfile(np.array([0.5, 0.0]), 2.0, -1.0)
    pts = np.array([[0.5, 0.0], [1.5, 0.0]])
    assert np.allclose(g.value(pts), [0.25, 0.2], atol=1e-15)
    # a flat array of 1D points is one point per entry, not one 2-value row
    g1 = GmqProfile(np.zeros(1), 1.0, -1.0)
    assert np.allclose(g1.value(np.array([0.5, 1.5])), [0.8, 1.0 / 3.25], rtol=1e-15)


_FACTOR_FIELDS = ("b", "c", "weights", "b_alt", "c_alt")


@pytest.mark.parametrize("d, alpha, ps, K, M", [
    (1, 0.8, uniform_interval(120), 48, 96),
    (1, 1.6, uniform_interval(40), 16, 96),
    (2, 1.2, clipped_grid(1.0 / 16.0), 16, 32),
    (2, 0.6, polar_layout(5, 7), 24, 48),
], ids=["interval-0.8", "interval-1.6", "embedded-1.2", "polar-0.6"])
def test_tail_factors_and_matrix_match_out_of_place_formulas_bitwise(d, alpha, ps, K, M):
    # factors are built in place with the operations of the plain
    # expressions, in the same order (the weights folded into b), and the
    # product is added as tail_added_ref adds it, so no bit may move
    basis = GmqBasis(ps.points, FracParams(d, alpha), 0.9, K=K, M=M)
    tf = tail_factors_at(ps.interior, basis)
    ref = tail_factors_ref(ps.interior, basis.centers, basis.eps, basis.beta, basis.params, K, M)
    assert tf.scale == ref.scale
    for name in _FACTOR_FIELDS:
        got, want = getattr(tf, name), getattr(ref, name)
        assert (got is None) == (want is None), name
        assert got is None or np.array_equal(got, want), name
    mat = tail_added_ref(ref, np.zeros((ps.n_interior, ps.n_total)))
    assert np.array_equal(_assembled(tf), mat)
    # into the leading rows of a larger buffer, as linsys.assemble does
    out = np.full((ps.n_total, ps.n_total), np.nan)
    out[:ps.n_interior] = 0.0
    tf.assemble(out[:ps.n_interior])
    assert np.array_equal(out[:ps.n_interior], mat)
    assert np.all(np.isnan(out[ps.n_interior:]))


@pytest.mark.parametrize("alpha, beta", [(0.8, -0.5), (1.6, 0.25)])
def test_interval_factors_are_the_two_rays_as_alternate_columns(alpha, beta):
    # on the interval the direction rule is +1, -1 of weight 1, node-major,
    # so the even columns of b (rows of c) are the ray toward +infinity and
    # the odd ones the ray toward -infinity, each entry with the bits of the
    # one-ray formulas w (1 - sign x s)^(-1-alpha) and
    # ((s eps)^2 + (1 - sign c s)^2)^beta
    ps = uniform_interval(40)
    x, xc = ps.interior[:, 0], ps.points[:, 0]
    p, eps, K = FracParams(1, alpha), 0.9, 24
    s, weights = gauss_legendre_01(K)
    tf = exterior._tail_factors(ps.interior, ps.points, eps, beta, p, K, 96)
    w = weights * s ** (alpha - 1.0 - 2.0 * beta)
    assert tf.b.shape == (ps.n_interior, 2 * K) and tf.c.shape == (2 * K, ps.n_total)
    for sign, cols in ((1.0, slice(0, None, 2)), (-1.0, slice(1, None, 2))):
        assert np.array_equal(tf.weights[cols], w)
        assert np.array_equal(tf.b[:, cols],
                              (1.0 - sign * x[:, None] * s[None, :]) ** (-1.0 - alpha) * w)
        assert np.array_equal(tf.c[cols], ((s[:, None] * eps) ** 2
                                           + (1.0 - sign * xc[None, :] * s[:, None]) ** 2) ** beta)
    assert tf.b_alt is None and tf.c_alt is None


@pytest.mark.parametrize("d, ps, K, M", [
    (1, uniform_interval(300), 16, 96),
    (2, clipped_grid(1.0 / 16.0), 8, 48),
], ids=["interval", "embedded"])
def test_assemble_adds_the_tail_to_what_out_holds(d, ps, K, M):
    # assemble adds, it does not overwrite: a nonzero out, C- or F-ordered,
    # ends as exactly out plus the tail added _ROWS rows at a time, over
    # several such blocks, and within 2e-15 of out plus the single product
    # tail_matrix_ref, relative to |out| + |tail| entrywise (measured 4.0e-16
    # in 1D, 1.2e-15 in 2D: the row blocks move the last N mod 16 centers'
    # columns by an ulp of the product)
    assert ps.n_interior > 2 * exterior._ROWS
    basis = GmqBasis(ps.points, FracParams(d, 1.2), 0.9, K=K, M=M)
    held = np.random.default_rng(3).standard_normal((ps.n_interior, ps.n_total))
    ref = tail_factors_ref(ps.interior, basis.centers, basis.eps, basis.beta, basis.params, K, M)
    want = tail_added_ref(ref, held, rows=exterior._ROWS)
    for out in (held.copy(), np.asfortranarray(held)):
        assert tail_factors_at(ps.interior, basis).assemble(out) is out
        assert np.array_equal(out, want)
    tail = tail_matrix_ref(ref)
    gap = np.abs(want - (held + tail)) / (np.abs(held) + np.abs(tail))
    assert np.max(gap) <= 2e-15


def test_tails_of_ring_blocks_add_up_to_the_whole_tail():
    # the factors of a run of rings are the whole rule's factors at those
    # rings' nodes, bit for bit, so their tails add up to the whole tail
    ps = clipped_grid(1.0 / 8.0)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 0.9, K=12, M=48)
    whole = tail_factors_at(ps.interior, basis)
    nodes, weights = gauss_legendre_01(12)
    parts = [tail_factors_at(ps.interior, basis, (nodes[k:k + 5], weights[k:k + 5]))
             for k in (0, 5, 10)]
    for name in ("b", "c", "weights"):
        assert np.array_equal(np.concatenate([getattr(tf, name) for tf in parts],
                                             axis=0 if name == "c" else -1), getattr(whole, name))
    assert np.allclose(sum(tail_matrix_ref(tf) for tf in parts), tail_matrix_ref(whole),
                       rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d, K, M, steps", [
    (1, 48, 96, [48]),
    (2, 32, 64, [4] * 8),
    (2, 32, 48, [5] * 6 + [2]),
    (2, 10, 96, [2] * 5),
    (2, 3, 512, [1] * 3),
    (1, 300, 96, [128, 128, 44]),
])
def test_add_tail_adds_blocks_of_whole_rings(d, K, M, steps, monkeypatch):
    # the blocks run over the Gauss rule in order, made once, each block
    # 256 // (directions per radial node) whole rings (at least one): M in
    # 2D, the two directions +-1 in 1D, so K <= 128 is one block in 1D. Only
    # one block's factors sit beside out; their tails add up in turn
    ps = uniform_interval(6) if d == 1 else polar_layout(2, 5)
    basis = GmqBasis(ps.points, FracParams(d, 1.2), 0.9, K=K, M=M)
    rules, blocks = [], []

    def counted_rule(k):
        rules.append(k)
        return gauss_legendre_01(k)

    def spy(points, basis, rule=None):
        blocks.append(tail_factors_at(points, basis, rule))
        return blocks[-1]
    monkeypatch.setattr(exterior, "gauss_legendre_01", counted_rule)
    monkeypatch.setattr(exterior, "tail_factors_at", spy)
    held = np.ones((ps.n_interior, ps.n_total))
    out = exterior.add_tail(held.copy(), ps.interior, basis)
    assert rules == [K]
    assert [b.weights.size // (2 if d == 1 else M) for b in blocks] == steps
    want = held
    for tf in blocks:
        want = tail_added_ref(tf, want)
    assert np.array_equal(out, want)


@pytest.mark.parametrize("ps, d", [(uniform_interval(40), 1), (polar_layout(3, 5), 2)],
                         ids=["interval", "polar"])
def test_assemble_only_reads_its_factors(ps, d):
    # the weights are in b from the start, so a second assemble of the same
    # factors adds the same bits again and leaves every field as it was
    tf = tail_factors_at(ps.interior, GmqBasis(ps.points, FracParams(d, 1.2), 0.9, K=12, M=48))
    held = {name: getattr(tf, name) for name in _FACTOR_FIELDS}
    kept = {name: None if a is None else a.copy() for name, a in held.items()}
    once = _assembled(tf)
    assert np.array_equal(tf.assemble(once.copy()), once + once)
    assert np.array_equal(_assembled(tf), once)
    for name, a in held.items():
        assert getattr(tf, name) is a
        assert a is None or np.array_equal(a, kept[name]), name


@pytest.mark.parametrize("ps, d, K, M, nodes", [
    (uniform_interval(40), 1, 24, 96, None),
    (polar_layout(5, 7), 2, 12, 48, 240),
    (polar_layout(5, 7), 2, 5, 512, 512),
], ids=["interval", "polar-5-rings", "polar-1-ring"])
def test_exterior_datum_is_added_in_the_node_blocks_of_add_tail(ps, d, K, M, nodes):
    # the datum's one-column tail goes through add_tail's node blocks and
    # row blocks, so it has the bits of tail_added_ref on the whole rule's
    # factors cut into those blocks (240 = 5 rings of 48 angles)
    basis = GmqBasis(ps.points, FracParams(d, 1.2), 0.9, K=K, M=M)
    g = GmqProfile(np.zeros(d), 1.0, -(d + 1) / 2.0)
    ref = tail_factors_ref(ps.interior, g.center, g.eps, g.exponent, basis.params, K, M)
    want = tail_added_ref(ref, np.zeros((ps.n_interior, 1)), nodes)
    assert np.array_equal(exterior_data_correction(g, ps.interior, basis), want[:, 0])
