"""Dense system assembly, LU solve, conditioning, and reduced operators."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import get_lapack_funcs

from fracrbf import harness
from fracrbf.exterior import exterior_data_correction, tail_factors_at
from fracrbf.geometry import (PointSet, clipped_grid, disk_grid, orbits, polar_layout,
                               uniform_interval)
from fracrbf.harness import measurement_points, solve_row
from fracrbf.linsys import (SystemMatrices, _factor, _phi_factor, assemble, condition_estimate,
                            nodal_operator)
from fracrbf.oracles import case1_datum
from fracrbf.rbf import GmqBasis, classical_lap_block, frac_lap_block, phi_block
from fracrbf.specialfun import FracParams
from fracrbf.steady import (evaluate_interpolant, forward_frac_lap_clipped, interpolate,
                            poisson_rhs)
from reference import (cholesky_cond_ref, frac_lap_block_ref, nodal_operator_ref, one_norm_ref,
                       phi_block_ref, phi_solve_ref, tail_added_ref, tail_factors_ref,
                       tail_matrix_ref)


def _system_1d(n=10, alpha=1.2, eps=1.0, K=32):
    ps = uniform_interval(n)
    basis = GmqBasis(ps.points, FracParams(1, alpha), eps, K=K)
    return ps, basis, assemble(ps, basis)


def test_assemble_block_structure():
    ps, basis, sm = _system_1d()
    n, n_int = ps.n_total, ps.n_interior
    assert sm.s.shape == (n, n)
    a_phi = phi_block(basis, ps.points)
    assert a_phi.shape == (n, n)
    # equation rows = closed-form image + tails, boundary rows = plain phi
    top_ref = (frac_lap_block(basis, ps.interior)
               + tail_matrix_ref(tail_factors_at(ps.interior, basis)))
    assert np.allclose(sm.s[:n_int], top_ref, atol=1e-15)
    assert np.array_equal(sm.s[n_int:], a_phi[n_int:])
    assert np.array_equal(a_phi, phi_block_ref(basis, ps.points))


def test_manufactured_coefficients_1d():
    ps, basis, sm = _system_1d()
    rng = np.random.default_rng(7)
    lam_star = rng.standard_normal(ps.n_total)
    lam = sm.solve(sm.s @ lam_star)
    err = np.linalg.norm(lam - lam_star) / np.linalg.norm(lam_star)
    assert err <= 1e-10


def test_manufactured_coefficients_2d():
    ps = polar_layout(3, 7)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 1.0, K=32, M=48)
    sm = assemble(ps, basis)
    rng = np.random.default_rng(7)
    lam_star = rng.standard_normal(ps.n_total)
    lam = sm.solve(sm.s @ lam_star)
    err = np.linalg.norm(lam - lam_star) / np.linalg.norm(lam_star)
    assert err <= 1e-10


def test_lu_solve_plain_matrix_and_singularity():
    rng = np.random.default_rng(3)
    a = np.asfortranarray(rng.standard_normal((6, 6)))
    x = rng.standard_normal(6)
    b = a @ x  # before _factor overwrites a with its LU
    got = sla.lu_solve(_factor(a), b)
    assert np.allclose(got, x, rtol=1e-10)
    with pytest.raises(np.linalg.LinAlgError):
        _factor(np.zeros((3, 3), order="F"))


def test_factor_refuses_a_c_order_matrix():
    # a C-order matrix is factored as its F-order transpose, never copied
    a = np.random.default_rng(4).standard_normal((5, 5))
    keep = a.copy()
    with pytest.raises(ValueError, match="F-contiguous"):
        _factor(a)
    assert np.array_equal(a, keep)
    lu, piv = _factor(a.T)
    assert np.shares_memory(lu, a)


def test_nodal_values_reads_top_block():
    # the nodal values of a solve are the expansion at the equation points
    ps, basis, _ = _system_1d(n=8)
    _, lam, u_nodes = solve_row(ps, basis, lambda pts: np.cos(pts[:, 0]))
    ref = phi_block(basis, ps.interior) @ lam
    assert u_nodes.shape == (ps.n_interior,)
    assert np.allclose(u_nodes, ref, atol=1e-14)


def test_condition_estimate_tracks_true_condition():
    ps, basis, sm = _system_1d(n=9, eps=0.8)
    est = condition_estimate(basis, phi_block(basis, ps.points))
    true = np.linalg.cond(phi_block(basis, ps.points), 1)
    assert est == pytest.approx(true, rel=0.5)


def test_condition_estimate_reads_the_basis_alone():
    # the estimate needs no assembled system: from the basis and its A_phi
    # alone it gives the cond that a steady solve on the same basis reports
    ps = polar_layout(3, 7)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 1.0, K=16, M=32)
    est = condition_estimate(basis, phi_block(basis, ps.points))
    row, _, _ = solve_row(ps, basis, lambda x: np.ones(len(x)))
    assert est == row.cond


@pytest.mark.parametrize("ps, eps", [
    (polar_layout(10, 10), 0.8),
    (clipped_grid(1.0 / 16.0), 0.9),
], ids=["disk", "embedded"])
def test_solve_row_nodal_values_are_the_interpolant_bitwise(ps, eps):
    # the nodal values are read off the interior rows of A_phi, a contiguous
    # row block, so the product is the one evaluate_interpolant makes
    basis = GmqBasis(ps.points, FracParams(2, 1.2), eps, K=16, M=32)
    _, lam, u = solve_row(ps, basis, lambda x: np.ones(len(x)))
    assert np.array_equal(u, evaluate_interpolant(lam, basis, ps.interior))


def test_nodal_operator_reproduces_equation_rows():
    # for any interior nodal vector v, the operator must equal: extend v by
    # zero boundary values, fit coefficients, apply the equation rows
    ps, basis, sm = _system_1d(n=9)
    a = sm.s[:ps.n_interior] @ nodal_operator(ps, basis)
    assert a.shape == (ps.n_interior, ps.n_interior)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(ps.n_interior)
    samples = np.concatenate([v, np.zeros(ps.n_total - ps.n_interior)])
    lam = np.linalg.solve(phi_block(basis, ps.points), samples)
    ref = sm.s[: ps.n_interior] @ lam
    assert np.allclose(a @ v, ref, rtol=1e-8, atol=1e-12)


def test_nodal_operator_custom_rows():
    ps, basis, sm = _system_1d(n=9)
    rows = classical_lap_block(basis, ps.interior)
    a = rows @ nodal_operator(ps, basis)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(ps.n_interior)
    samples = np.concatenate([v, np.zeros(2)])
    lam = np.linalg.solve(phi_block(basis, ps.points), samples)
    assert np.allclose(a @ v, rows @ lam, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("ps, d, K, M, nodes", [
    (uniform_interval(120), 1, 48, 96, None),
    (clipped_grid(1.0 / 16.0), 2, 16, 32, 256),
], ids=["interval", "embedded"])
def test_system_and_norm_match_out_of_place_formulas_bitwise(ps, d, K, M, nodes):
    # S is filled in place (the image block and the boundary rows, then the
    # tail added into the equation rows one block of whole rings at a time:
    # 8 rings of 32 angles here in 2D, so two blocks of 256 nodes, and one
    # block in 1D), which must give the bits of the plain blocks with the
    # tail added as tail_added_ref adds it
    basis = GmqBasis(ps.points, FracParams(d, 1.2), 0.9, K=K, M=M)
    sm = assemble(ps, basis)
    n_int = ps.n_interior
    a_phi = phi_block_ref(basis, ps.points)
    top = tail_added_ref(tail_factors_ref(ps.interior, basis.centers, basis.eps, basis.beta,
                                          basis.params, K, M),
                         frac_lap_block_ref(basis, ps.interior), nodes)
    assert np.array_equal(phi_block(basis, ps.points), a_phi)
    assert np.array_equal(sm.s, np.vstack([top, a_phi[n_int:]]))
    # lange's infinity norm of the transposed view sums each column in row
    # order, as abs(A).sum(axis=0) does, so gecon sees the same 1-norm. That
    # holds for the reference-LAPACK dlange that the OpenBLAS numpy/scipy
    # wheels ship; a vectorised lange (MKL, Accelerate) may sum in another
    # order and fail this equality in the last digits
    mat = phi_block(basis, ps.points)
    gecon, lange = get_lapack_funcs(("gecon", "lange"), (mat,))
    anorm = one_norm_ref(mat)  # before _factor overwrites mat with its LU
    assert lange("I", mat.T) == anorm
    rcond, info = gecon(_factor(mat.T)[0], anorm, norm="1")
    assert info == 0
    assert condition_estimate(basis, phi_block(basis, ps.points)) == 1.0 / rcond


@pytest.mark.parametrize("alpha", [0.4, 1.2, 1.6])
@pytest.mark.parametrize("ps, d, K, M", [
    (uniform_interval(600), 1, 48, 96),
    (clipped_grid(1.0 / 16.0), 2, 32, 64),
], ids=["interval", "embedded"])
def test_blocked_system_is_the_single_product_system_up_to_rounding(ps, d, K, M, alpha):
    # adding the tail in node blocks (8 blocks of 4 rings in 2D) and row
    # blocks into the image block reorders the rounding of the plain sum
    # with the single product tail_matrix_ref. Each equation row differs
    # from it by at most 2e-15 times its largest entry: measured worst
    # 8.0e-16 in 2D, at alpha 1.6. In 1D all K nodes are one block and N=600
    # has no short tile of centers, so S has the single product's bits
    tol = 2e-15
    basis = GmqBasis(ps.points, FracParams(d, alpha), 0.9, K=K, M=M)
    top = assemble(ps, basis).s[:ps.n_interior]
    want = frac_lap_block_ref(basis, ps.interior) + tail_matrix_ref(
        tail_factors_ref(ps.interior, basis.centers, basis.eps, basis.beta, basis.params, K, M))
    gap = np.max(np.abs(top - want), axis=1) / np.max(np.abs(want), axis=1)
    assert np.max(gap) <= tol


@pytest.mark.parametrize("ps, alpha, eps", [
    (polar_layout(10, 10), 0.4, 0.8),
    (clipped_grid(1.0 / 16.0), 1.6, 0.2),
], ids=["disk", "embedded"])
def test_cholesky_estimate_matches_out_of_place_formula_bitwise(ps, alpha, eps):
    # with beta < 0 the estimate is pocon on potrf of A_phi, factored in place
    # on the F-contiguous view a.T: the bits of potrf on an F-order copy
    basis = GmqBasis(ps.points, FracParams(2, alpha), eps)
    assert basis.beta < 0
    est = condition_estimate(basis, phi_block(basis, ps.points))
    assert est == cholesky_cond_ref(phi_block_ref(basis, ps.points))


def test_failed_cholesky_falls_back_to_the_lu_estimate_exactly():
    # A_phi is positive definite in exact arithmetic, but here cond_1 is past
    # 1/u and potrf meets a pivot that is not positive; A_phi is then
    # evaluated again into its own buffer, and its LU there has the bits of
    # lu_factor on a fresh A_phi, so the estimate is the LU and gecon one
    ps = polar_layout(9, 9)
    basis = GmqBasis(ps.points, FracParams(2, 1.0), 1.5)
    a = phi_block(basis, ps.points)
    lu, piv = _phi_factor(basis, a)
    mat = phi_block_ref(basis, ps.points)
    lu_ref, piv_ref = sla.lu_factor(mat)
    assert np.shares_memory(lu, a)
    assert np.array_equal(lu, lu_ref) and np.array_equal(piv, piv_ref)
    rcond, info = get_lapack_funcs("gecon", (mat,))(lu_ref, one_norm_ref(mat), norm="1")
    assert info == 0
    assert condition_estimate(basis, phi_block(basis, ps.points)) == 1.0 / rcond


@pytest.mark.parametrize("ps, d, alpha, eps, cholesky", [
    (uniform_interval(40), 1, 1.2, 0.9, False),
    (polar_layout(10, 10), 2, 1.2, 0.8, True),
    (polar_layout(9, 9), 2, 1.0, 1.5, False),
], ids=["interval-lu", "disk-cholesky", "disk-failed-cholesky"])
def test_solves_with_a_phi_use_its_one_factor_bitwise(ps, d, alpha, eps, cholesky):
    # nodal_operator and interpolate solve through _phi_factor: potrf's factor
    # where beta < 0 and it succeeds, an LU otherwise, with the bits of the
    # same rule on copies of A_phi
    basis = GmqBasis(ps.points, FracParams(d, alpha), eps)
    assert (_phi_factor(basis)[1] is None) == cholesky
    n_int = ps.n_interior
    rhs = np.zeros((ps.n_total, n_int))
    rhs[:n_int] = np.eye(n_int)
    assert np.array_equal(nodal_operator(ps, basis), phi_solve_ref(basis, rhs))
    samples = np.cos(3.0 * ps.points[:, 0])
    assert np.array_equal(interpolate(basis, samples), phi_solve_ref(basis, samples))


def test_cholesky_coefficient_map_agrees_with_an_independent_lu():
    # the two factorizations round differently, so the operators they give
    # differ, but by no more than a modest multiple of cond(A_phi) u: cond
    # is 1.5e4 here, the gap 3.9e-14 relative, and the bound about 30 cond u
    ps = clipped_grid(1.0 / 8.0)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 0.2, K=16, M=32)
    assert _phi_factor(basis)[1] is None
    rows = (classical_lap_block(basis, ps.interior),)
    chol = nodal_operator_ref(ps, basis, rows=rows, coeff_map=nodal_operator(ps, basis))
    lu = nodal_operator_ref(ps, basis, rows=rows)
    assert not np.array_equal(chol, lu)
    assert np.max(np.abs(chol - lu)) <= 1e-11 * np.max(np.abs(lu))


def test_non_finite_pivots_are_refused():
    # an inf or nan entry leaves a pivot that is inf or nan, not zero
    a = np.asfortranarray(np.eye(3))
    a[0, 0] = np.inf
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        _factor(a)
    # at eps 1e-200 eps^2 underflows to 0, so A_phi's diagonal is 0 ** beta =
    # inf; potrf then succeeds with every pivot inf, and the LU it falls back
    # to refuses the matrix
    ps = polar_layout(3, 3)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 1e-200)
    with np.errstate(divide="ignore"), pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        _phi_factor(basis)


def _peak_in_n2(fn, n):
    """fn's result and the peak of the memory it allocated (numpy reports its
    buffers to tracemalloc), in units of n*n doubles."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak / (8.0 * n * n)


@pytest.mark.parametrize("ps, d, K, M, budget", [
    (clipped_grid(1.0 / 16.0), 2, 32, 64, 1.72),
    (uniform_interval(600), 1, 48, 96, 1.56),
    (clipped_grid(1.0 / 32.0), 2, 32, 64, 1.19),
], ids=["embedded", "interval", "fig-square-size"])
def test_assembly_memory_budget(ps, d, K, M, budget):
    # assemble returns S alone (1 unit) and, at its peak, also holds one
    # node block's tail factors b and c and the 128-row buffer that their
    # product is added through: 1.70 units at N=797, where a 256-node block
    # is large beside N^2, 1.53 in 1D (one block, whose buffer is 0.21 units
    # at N=600) and 1.17 at
    # fig-square's N=3209. The budgets sit just above that, so a temporary
    # put back fails here; the whole-rule factors gave 5.73, 2.32 and 2.07.
    # the solve factors S in its own buffer and holds only its
    # right-hand side, and condition_estimate only the fresh A_phi, which
    # its factor overwrites in place (an LU in every case: beta >= 0 in 1D,
    # and the 2D Cholesky meets a pivot that is not positive, so A_phi is
    # evaluated again into the same buffer).
    basis = GmqBasis(ps.points, FracParams(d, 1.2), 0.9, K=K, M=M)
    n = ps.n_total
    sm, assemble_peak = _peak_in_n2(lambda: assemble(ps, basis), n)
    assert assemble_peak < budget
    _, peak = _peak_in_n2(lambda: sm.solve(poisson_rhs(ps, basis, lambda x: np.ones(len(x)))), n)
    assert peak < ps.n_interior / n + 0.02
    _, peak = _peak_in_n2(lambda: condition_estimate(basis, phi_block(basis, ps.points)), n)
    assert peak < 1.1
    # so no stage after assembly stacks on S: a whole steady solve peaks where
    # assemble does, up to the few hundred bytes of its Python objects
    _, peak = _peak_in_n2(lambda: solve_row(ps, basis, lambda x: np.ones(len(x))), n)
    assert peak <= assemble_peak + 1e-3


@pytest.mark.parametrize("ps, tail, budget", [
    (disk_grid(1.0 / 16.0),
     lambda ps, basis: exterior_data_correction(case1_datum(2), ps.interior, basis), 0.30),
    (polar_layout(9, 9),
     lambda ps, basis: forward_frac_lap_clipped(np.ones(ps.n_total), basis,
                                                measurement_points(ps)), 95.0),
], ids=["exterior-datum", "clipped-forward"])
def test_tails_outside_s_memory_budget(ps, tail, budget):
    # the two tails outside S go through add_tail's node blocks too (here
    # 2 rings of 96 angles), so they hold one block's factors at a time. The
    # datum's tail at N=825 peaks at 0.29 units (one block's b beside the
    # result); the clipped operator at its 2561 measurement points and N=91
    # at 93.9 units, about 6.2 MB (the 2561 x 91 rows, one block's b and c,
    # and the row buffer). The budgets sit just above; the whole-rule
    # factors of the matrix-free product gave 10.76 and 2902 units
    basis = GmqBasis(ps.points, FracParams(2, 1.0), 1.5, K=48, M=96)
    _, peak = _peak_in_n2(lambda: tail(ps, basis), ps.n_total)
    assert peak < budget


def test_condition_estimate_memory_budget_on_the_cholesky_path():
    # the Cholesky factor, too, is made in the fresh A_phi's own buffer
    ps = clipped_grid(1.0 / 16.0)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 0.2)
    assert _phi_factor(basis)[1] is None
    _, peak = _peak_in_n2(lambda: condition_estimate(basis, phi_block(basis, ps.points)),
                          ps.n_total)
    assert peak < 1.1


@pytest.mark.parametrize("ps, d", [
    (clipped_grid(1.0 / 16.0), 2),
    (uniform_interval(600), 1),
], ids=["embedded", "interval"])
def test_interpolate_memory_budget(ps, d):
    # A_phi is evaluated and factored in place, and its LU is dropped before
    # A_phi is evaluated again for the residual: one N x N array at a time
    basis = GmqBasis(ps.points, FracParams(d, 1.2), 4.0 * ps.spacing)
    samples = np.cos(ps.points[:, 0])
    _, peak = _peak_in_n2(lambda: interpolate(basis, samples), ps.n_total)
    assert peak < 1.1


def test_system_keeps_only_s():
    assert [f.name for f in dataclasses.fields(SystemMatrices)] == ["s"]


def test_solve_consumes_the_system():
    # the LU of S^T is made in S's buffer, so S is dropped and a second
    # solve fails
    ps, basis, sm = _system_1d(n=8)
    s = sm.s
    rhs = np.ones(ps.n_total)
    lam = sm.solve(rhs)
    assert sm.s is None
    s_t_lu = sla.lu_factor(assemble(ps, basis).s.T)
    assert np.array_equal(lam, sla.lu_solve(s_t_lu, rhs, trans=1))
    assert np.array_equal(s.T, s_t_lu[0])
    with pytest.raises(ValueError, match="consumed"):
        sm.solve(rhs)


def test_assemble_rejects_basis_off_the_point_set():
    # the in-place LU of A_phi factors its transpose, which is A_phi only
    # when the basis is centered at the point set
    ps = uniform_interval(8)
    shifted = GmqBasis(ps.points + 0.01, FracParams(1, 1.2), 1.0)
    with pytest.raises(ValueError, match="centered"):
        assemble(ps, shifted)
    subset = GmqBasis(ps.points[:-1], FracParams(1, 1.2), 1.0)
    with pytest.raises(ValueError, match="centered"):
        assemble(ps, subset)


@pytest.mark.parametrize("ps, d, alpha", [
    (uniform_interval(120), 1, 0.8),
    (uniform_interval(120), 1, 1.6),
    (clipped_grid(1.0 / 16.0), 2, 1.2),
], ids=["interval-0.8", "interval-1.6", "embedded-1.2"])
def test_in_place_factor_of_transposed_a_phi_is_bitwise_lu_factor(ps, d, alpha):
    # A_phi is bitwise symmetric, so the F-contiguous view a.T is A_phi
    # itself and getrf factors it in place into the bits lu_factor gives
    a = phi_block(GmqBasis(ps.points, FracParams(d, alpha), 0.9), ps.points)
    assert np.array_equal(a, a.T)
    lu_ref, piv_ref = sla.lu_factor(a.copy())
    lu, piv = _factor(a.T)
    assert np.shares_memory(lu, a)
    assert np.array_equal(lu, lu_ref)
    assert np.array_equal(piv, piv_ref)


def _orbit_solve_cases():
    # (point set, d, eps, K, M); the last is ill-conditioned (cond(A_phi) ~ 1e13)
    return [(disk_grid(0.125), 2, 0.25, 32, 64), (clipped_grid(1.0 / 16.0), 2, 0.05, 32, 64),
            (uniform_interval(258), 1, 4.0 / 256.0, 48, 64),
            (polar_layout(10, 10), 2, 0.8, 48, 96)]


def _full_solve(ps, basis, f):
    """The solve on all points, through the whole S: (lam, u)."""
    lam = assemble(ps, basis).solve(poisson_rhs(ps, basis, f))
    return lam, evaluate_interpolant(lam, basis, ps.interior)


@pytest.mark.parametrize("ps, d", [(uniform_interval(40), 1), (disk_grid(0.125), 2)],
                         ids=["interval", "disk"])
def test_singleton_orbits_build_the_whole_s_bitwise(ps, d):
    basis = GmqBasis(ps.points, FracParams(d, 1.2), 0.5, K=32, M=64)
    s = assemble(ps, basis).s
    assert np.array_equal(assemble(ps, basis, np.arange(ps.n_total)).s, s)


@pytest.mark.parametrize("ps, d", [(uniform_interval(40), 1), (disk_grid(0.125), 2),
                                   (polar_layout(5, 5), 2)], ids=["interval", "disk", "polar"])
def test_orbit_system_is_the_representative_rows_summed_over_orbits(ps, d):
    basis = GmqBasis(ps.points, FracParams(d, 1.2), 0.5, K=32, M=64)
    orbit = orbits(ps, basis.M)
    reps = np.unique(orbit, return_index=True)[1]
    s = assemble(ps, basis).s
    indicator = np.zeros((ps.n_total, len(reps)))
    indicator[np.arange(ps.n_total), orbit] = 1.0
    red = assemble(ps, basis, orbit).s
    assert red.shape == (len(reps), len(reps)) and red.flags.c_contiguous
    assert np.max(np.abs(red - s[reps] @ indicator)) <= 1e-14 * np.max(np.abs(s))


def test_orbit_assembly_memory_budget():
    # at fig-square's N=3209 the 429 representative rows (0.134 units) are
    # built with one node block of the tail factors and the row buffer
    # beside them, and their columns, taken orbit by orbit, are summed by one
    # reduceat into the 429 x 429 system: 0.26 units at the peak, against
    # 1.17 for the whole S. A gathered copy of the rows would add 0.134
    ps = clipped_grid(1.0 / 32.0)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 0.05, K=32, M=64)
    orbit = orbits(ps, basis.M)
    sm, peak = _peak_in_n2(lambda: assemble(ps, basis, orbit), ps.n_total)
    assert sm.s.shape == (429, 429)
    assert peak < 0.29


@pytest.mark.parametrize("case", _orbit_solve_cases()[:3], ids=["disk", "embedded", "interval"])
@pytest.mark.parametrize("alpha", [0.4, 1.2, 1.6])
def test_orbit_solve_agrees_with_the_full_solve(case, alpha):
    ps, d, eps, K, M = case
    basis = GmqBasis(ps.points, FracParams(d, alpha), eps, K=K, M=M)
    f = lambda x: np.ones(len(x))
    _, lam, u = solve_row(ps, basis, f)
    _, u_full = _full_solve(ps, basis, f)
    assert np.max(np.abs(u - u_full)) <= 1e-12 * np.max(np.abs(u_full))
    # lam is constant on orbits exactly (the full solve's is not: on the
    # ill-conditioned layouts its asymmetry is O(1), so lam is not compared)
    orbit = orbits(ps, M)
    assert np.array_equal(lam, lam[np.unique(orbit, return_index=True)[1]][orbit])


@pytest.mark.parametrize("case", _orbit_solve_cases(),
                         ids=["disk", "embedded", "interval", "fig-disk"])
@pytest.mark.parametrize("alpha", [0.4, 1.2, 1.6])
def test_orbit_solve_is_within_the_full_solves_own_asymmetry(case, alpha):
    # the full solve's u varies within an orbit by its rounding alone; the
    # orbit solve moves u by at most 3 times that (1.9 measured, on the
    # interval at alpha 1.6), on polar_layout(10, 10) too, where the
    # relative shift is 4e-8
    ps, d, eps, K, M = case
    basis = GmqBasis(ps.points, FracParams(d, alpha), eps, K=K, M=M)
    f = lambda x: np.ones(len(x))
    _, _, u = solve_row(ps, basis, f)
    _, u_full = _full_solve(ps, basis, f)
    orbit = orbits(ps, M)[:ps.n_interior]
    top, low = np.full(orbit.max() + 1, -np.inf), np.full(orbit.max() + 1, np.inf)
    np.maximum.at(top, orbit, u_full)
    np.minimum.at(low, orbit, u_full)
    assert np.max(np.abs(u - u_full)) <= 3.0 * np.max(top - low)


@pytest.mark.parametrize("M, n_orbits", [(30, 61), (63, 113)])
def test_orbit_solve_uses_the_group_of_the_tail_rule(M, n_orbits, monkeypatch):
    # with M = 30 or 63 the quarter turns (and for 63 the half turn and
    # x1 -> -x1) do not
    # map the tail rule onto itself; solving on disk_grid(1/8)'s 34 D4 orbits
    # would move u by 3.5-4.5%
    ps = disk_grid(0.125)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 0.25, K=32, M=M)
    sizes = []

    def recorded(*args):
        sm = assemble(*args)
        sizes.append(sm.s.shape)
        return sm
    monkeypatch.setattr(harness, "assemble", recorded)
    f = lambda x: np.ones(len(x))
    _, _, u = solve_row(ps, basis, f)
    assert sizes == [(n_orbits, n_orbits)]
    _, u_full = _full_solve(ps, basis, f)
    assert np.max(np.abs(u - u_full)) <= 1e-12 * np.max(np.abs(u_full))


def test_a_right_hand_side_off_the_orbits_takes_the_full_solve_bitwise():
    # f = 1 + x1 is not constant on the D4 orbits, so solve_row solves on all
    # points, with the bits of the full solve
    ps = disk_grid(0.125)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 0.25, K=32, M=64)
    f = lambda x: 1.0 + x[:, 0]
    _, lam, u = solve_row(ps, basis, f)
    lam_full, u_full = _full_solve(ps, basis, f)
    assert np.array_equal(lam, lam_full)
    assert np.array_equal(u, u_full)


def test_an_asymmetric_layout_takes_the_full_solve_bitwise():
    # disk_grid(1/8) with its interior points jittered by 1e-6 is mapped onto
    # itself by the identity alone, so every orbit is a singleton and even
    # f = 1 is solved on all points, with the bits of the full solve
    grid = disk_grid(0.125)
    pts = grid.points.copy()
    pts[:grid.n_interior] += 1e-6 * np.random.default_rng(7).uniform(
        -1.0, 1.0, (grid.n_interior, 2))
    ps = PointSet(pts, grid.n_interior)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 0.25, K=32, M=64)
    assert np.array_equal(orbits(ps, basis.M), np.arange(ps.n_total))
    f = lambda x: np.ones(len(x))
    _, lam, u = solve_row(ps, basis, f)
    lam_full, u_full = _full_solve(ps, basis, f)
    assert np.array_equal(lam, lam_full)
    assert np.array_equal(u, u_full)


def test_solve_row_memory_budget_on_the_orbits():
    # the orbit system is (118 x 118) at N=825, and its rows (118 x N) are
    # built with one tail block beside them; the whole A_phi, evaluated for u
    # and the condition estimate after the solve, is then the largest array:
    # the peak is 1.01 units, where the whole S and the whole A_phi in turn
    # gave 1.77
    ps = disk_grid(1.0 / 16.0)
    basis = GmqBasis(ps.points, FracParams(2, 1.2), 0.125, K=32, M=64)
    _, peak = _peak_in_n2(lambda: solve_row(ps, basis, lambda x: np.ones(len(x))), ps.n_total)
    assert peak < 1.05
