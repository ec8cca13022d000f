"""Error metrics, rate derivation, report files, and the benchmark presets."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracrbf.harness import (PRESETS, RunReport, RunRow, convergence_rate,
                             preset_fig_disk, preset_table2, preset_table3,
                             preset_table4, preset_table5, rms_error)


def test_rms_error_examples():
    assert rms_error([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 2.0]) == pytest.approx(0.5)
    assert rms_error([3.0, 4.0], [3.0, 4.0]) == 0.0
    assert rms_error([2.0], [0.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rms_error([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        rms_error([0.0, 0.0], [1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.01, 100.0))
def test_rms_error_scale_invariance(scale):
    exact = np.array([1.0, -2.0, 3.0])
    approx = np.array([1.1, -1.8, 2.9])
    base = rms_error(exact, approx)
    scaled = rms_error(scale * exact, scale * approx)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_convergence_rate_recovers_planted_order():
    # halving the error when n doubles is first order
    assert convergence_rate(0.4, 0.2, 10, 20) == pytest.approx(1.0)
    assert convergence_rate(0.4, 0.1, 10, 20) == pytest.approx(2.0)
    # per-axis reduction in 2D: quadrupling N doubles the resolution
    assert convergence_rate(0.4, 0.1, 100, 400, dim=2) == pytest.approx(2.0)


@settings(max_examples=40, deadline=None)
@given(rate=st.floats(0.25, 6.0), n_prev=st.integers(4, 100))
def test_convergence_rate_round_trip(rate, n_prev):
    n_cur = 2 * n_prev
    e_prev = 0.3
    e_cur = e_prev * (n_prev / n_cur) ** rate
    got = convergence_rate(e_prev, e_cur, n_prev, n_cur)
    assert got == pytest.approx(rate, rel=1e-9)


def test_convergence_rate_degenerate_inputs():
    assert convergence_rate(0.4, 0.2, 10, 10) is None
    assert convergence_rate(0.0, 0.2, 10, 20) is None
    assert convergence_rate(0.4, 0.0, 10, 20) is None


def test_report_add_derives_rates():
    rep = RunReport(label="demo")
    rep.add(RunRow(n=10, e=0.4, ehat=0.8))
    rep.add(RunRow(n=20, e=0.1, ehat=0.4))
    assert rep.rows[0].rate_e is None
    assert rep.rows[1].rate_e == pytest.approx(2.0)
    assert rep.rows[1].rate_ehat == pytest.approx(1.0)


def test_report_write_files(tmp_path):
    rep = RunReport(label="demo", meta=dict(alpha=1.2, eps=1.5))
    rep.add(RunRow(n=4, e=0.25, ehat=0.5, cond=100.0, seconds=0.123456))
    rep.add(RunRow(n=8, e=0.0625, ehat=0.25, cond=1000.0, seconds=0.2))
    out = rep.write(tmp_path)
    assert out == tmp_path / "results.csv"
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "E", "rate", "Ehat", "rate", "cond"]
    assert rows[1][0] == "4" and rows[1][2] == ""  # first row carries no rate
    assert float(rows[2][2]) == pytest.approx(2.0)
    # every numeric cell round-trips exactly through repr
    assert float(rows[1][1]) == 0.25
    with open(tmp_path / "timings.csv") as fh:
        trows = list(csv.reader(fh))
    assert trows[0] == ["N", "seconds"]
    assert trows[1] == ["4", "0.123"]
    meta = (tmp_path / "run_meta.txt").read_text()
    assert "label=demo" in meta and "alpha=1.2" in meta
    assert "timestamp=" in meta and "git_rev=" in meta
    assert (tmp_path / "plot.py").exists()


def test_results_csv_excludes_wall_clock(tmp_path):
    # seconds live in timings.csv only, so results.csv is bit-stable
    rep = RunReport(label="demo")
    rep.add(RunRow(n=4, e=0.5, seconds=1.0))
    rep.write(tmp_path / "a")
    rep.rows[0].seconds = 2.0
    rep.write(tmp_path / "b")
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    assert a == b


def test_preset_registry():
    assert set(PRESETS) == {"table2", "table3", "table4", "table5", "table6",
                            "fig-disk", "fig-square", "fig-mixed", "fig-qg"}
    for fn in PRESETS.values():
        assert callable(fn)


def test_preset_table2_frozen_rows():
    # regression pin of the full default sweep (relative 1e-9 absorbs BLAS
    # reordering noise while catching any algebraic change)
    rep = preset_table2()
    ns = [r.n for r in rep.rows]
    assert ns == [2, 4, 8, 16]
    expect = [
        (0.010472334562952712, 0.14241864260425977, 2947.4735597553567),
        (0.00797341830885559, 0.026691098443814485, 290390.6321256796),
        (0.00045374595958401324, 0.000860443223977216, 2084009949.2349632),
        (2.0367322134142057e-06, 1.900854427486076e-06, 6.4687264996550024e+16),
    ]
    for row, (e, ehat, cond) in zip(rep.rows, expect):
        assert row.e == pytest.approx(e, rel=1e-9)
        assert row.ehat == pytest.approx(ehat, rel=1e-9)
        assert row.cond == pytest.approx(cond, rel=1e-6)
    assert rep.meta["alpha"] == 1.2


@pytest.mark.parametrize("run, expect", [
    (lambda: preset_table3(ns=(2, 4)), [
        (2, 0.053536097458165344, 0.14857813045297033, 2947.4735597553567),
        (4, 0.031375053978161996, 0.07130833041672315, 290390.6321256796),
    ]),
    (lambda: preset_table4(ns=(256, 512)), [
        (256, 0.010750549991066245, 0.004822963259652001, 926006.8450932724),
        (512, 0.005414671425848651, 0.0034154284129039054, 2092181.1597294572),
    ]),
    (lambda: preset_fig_disk(alphas=(0.4, 1.2)), [
        (111, 0.03337223199354429, None, 4775364449295.637),
        (111, 0.034032266432048146, None, 10659492404674.416),
    ]),
], ids=["table3", "table4", "fig-disk"])
def test_preset_small_frozen_rows(run, expect):
    # rel 1e-6 sits above the few-ulp spread of these values but catches
    # any change in the algebra of the preset bodies
    rep = run()
    assert [r.n for r in rep.rows] == [n for n, _, _, _ in expect]
    for row, (_, e, ehat, cond) in zip(rep.rows, expect):
        assert row.e == pytest.approx(e, rel=1e-6)
        assert row.ehat == (None if ehat is None else pytest.approx(ehat, rel=1e-6))
        assert row.cond == pytest.approx(cond, rel=1e-6)


def test_preset_table2_deterministic_rows():
    a = preset_table2(ns=(2, 4))
    b = preset_table2(ns=(2, 4))
    for ra, rb in zip(a.rows, b.rows):
        assert repr(ra.e) == repr(rb.e)
        assert repr(ra.ehat) == repr(rb.ehat)
        assert repr(ra.cond) == repr(rb.cond)


def test_preset_table5_small_levels():
    rep = preset_table5(levels=(3, 5))
    assert [r.n for r in rep.rows] == [13, 31]
    assert rep.rows[0].e == pytest.approx(0.018546296310678872, rel=1e-9)
    assert rep.rows[1].e == pytest.approx(0.0007332551375003809, rel=1e-9)
    # 2D rate derivation uses the per-axis point-count ratio
    ref_rate = math.log(rep.rows[0].e / rep.rows[1].e) / (math.log(31 / 13) / 2.0)
    assert rep.rows[1].rate_e == pytest.approx(ref_rate, rel=1e-12)
