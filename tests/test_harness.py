"""Error metrics, rate derivation, report files, and the benchmark presets."""

import ast
import csv
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracrbf import checks, harness, linsys
from fracrbf.dynamics import anisotropy_ratio, qg_operators
from fracrbf.geometry import disk_grid, polar_layout, uniform_interval
from fracrbf.harness import (PRESETS, RunReport, RunRow, convergence_rate,
                             preset_fig_disk, preset_table2, preset_table3,
                             preset_table4, preset_table5, preset_table6, rms_error,
                             snapshot_files, write_files)
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams
from reference import write_anisotropy_ref, write_snapshots_ref


def test_measurement_grids():
    tp = harness.measurement_points(polar_layout(3, 3))
    assert tp.shape == (2561, 2)
    r = np.linalg.norm(tp, axis=1)
    assert r[0] == 0.0
    assert np.max(r) == pytest.approx(0.95)
    # on the disk the grid does not depend on the point set
    assert np.array_equal(harness.measurement_points(disk_grid(0.25)), tp)
    # on the interval with n = 8 interior nodes: the n-1 interior points of
    # the grid of spacing 2/n, cut to |x| < window when one is given
    ps, companion = uniform_interval(10), uniform_interval(9).interior
    assert np.array_equal(harness.measurement_points(ps), companion)
    assert np.array_equal(harness.measurement_points(ps, window=0.5), companion[2:5])


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


def test_report_rates_are_per_axis_in_its_dimension():
    # meta["d"] = 2: a fourfold N is a twofold resolution per axis
    rep = RunReport(label="demo", meta=dict(d=2))
    rep.add(RunRow(n=10, e=0.4))
    rep.add(RunRow(n=40, e=0.1))
    assert rep.rows[1].rate_e == pytest.approx(2.0)


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


def test_plot_script_runs_in_a_preset_run_directory(tmp_path):
    # the viewer written into every run directory compiles and runs there:
    # without matplotlib it stops with a message, with it it draws the
    # results and every field file
    compile(harness._PLOT_SCRIPT, "plot.py", "exec")
    preset_fig_disk(alphas=(1.0,), K=16, M=32).write(tmp_path)
    env = dict(os.environ, MPLBACKEND="Agg")
    proc = subprocess.run([sys.executable, "plot.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        assert proc.returncode == 1
        assert "matplotlib is required" in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "results.png").is_file()
        assert (tmp_path / "solution_alpha1.0.png").is_file()


def test_snapshot_files(tmp_path):
    ps = polar_layout(3, 5)
    times = np.array([0.0, 0.25])
    fields = np.vstack([np.arange(ps.n_interior, dtype=float),
                        np.arange(ps.n_interior, dtype=float) * 2.0])
    files = snapshot_files(ps, times, fields, prefix="theta")
    write_files(tmp_path, files)
    names = list(files)[:-1]
    assert list(files) == names + ["theta_manifest.csv"]
    assert names == ["theta_t0.000000.csv", "theta_t0.250000.csv"]
    with open(tmp_path / "theta_manifest.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "file"]
    assert [r[1] for r in rows[1:]] == names
    with open(tmp_path / names[1]) as fh:
        body = list(csv.reader(fh))
    assert body[0] == ["x1", "x2", "value"]
    assert len(body) == ps.n_total + 1
    vals = np.array([float(r[2]) for r in body[1:]])
    # interior values first, zero-padded boundary after
    assert np.array_equal(vals[: ps.n_interior], fields[1])
    assert np.all(vals[ps.n_interior:] == 0.0)


def test_snapshot_names_must_differ(tmp_path):
    # 0 and 1e-7 both print as t0.000000; the second file would overwrite the first
    ps = polar_layout(3, 5)
    fields = np.zeros((2, ps.n_interior))
    with pytest.raises(ValueError):
        write_files(tmp_path / "out", snapshot_files(ps, np.array([0.0, 1e-7]), fields))
    assert not (tmp_path / "out").exists()


def test_schedule_rejects_snapshot_steps_that_share_a_name():
    # steps 0..5 at dt 1e-7 all print as t0.000000; the run would only fail
    # when its snapshots are written, after all the stepping
    with pytest.raises(ValueError, match="six decimals"):
        harness._schedule(1e-7, 5e-7, 1)
    harness._schedule(1e-6, 5e-6, 1)


def test_run_files_match_the_reference_writers(tmp_path, monkeypatch):
    # a short mixed and a short qg run: every file the report writes beside
    # results.csv has the bytes of the writers that wrote each file itself
    runs = []

    def recorded(stepper):
        def run(ops, cfg, u0, coefficient):
            times, fields = stepper(ops, cfg, u0, coefficient)
            runs.append((times, fields))
            return times, fields
        return run
    monkeypatch.setattr(harness, "crank_nicolson_mixed", recorded(harness.crank_nicolson_mixed))
    monkeypatch.setattr(harness, "run_qg", recorded(harness.run_qg))
    harness.preset_fig_mixed(dt=0.01, t_end=0.05).write(tmp_path / "new")
    ps = polar_layout(8, 8)
    for chi, (times, fields) in zip((0.0, 0.5, 1.0), runs):
        write_snapshots_ref(tmp_path / "ref", ps, times, fields, prefix=f"mixed_chi{chi}")
    harness.preset_fig_qg(grid_h=0.25, dt=0.01, t_end=0.08).write(tmp_path / "new")
    ps = disk_grid(0.25)
    times, fields = runs[3]
    write_snapshots_ref(tmp_path / "ref", ps, times, fields)
    write_anisotropy_ref(tmp_path / "ref", times, fields,
                         [anisotropy_ratio(ps.interior, f) for f in fields])
    ref = sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert len(ref) == 3 * (6 + 1) + 9 + 1 + 1
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == sorted(
        ref + ["results.csv", "timings.csv", "run_meta.txt", "plot.py"])
    for name in ref:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_field_preset_writes_nothing_from_python(tmp_path, monkeypatch):
    # the fields ride in the report; only RunReport.write fills a directory
    monkeypatch.chdir(tmp_path)
    rep = preset_fig_disk(alphas=(0.4, 1.2))
    assert list(tmp_path.iterdir()) == []
    assert sorted(rep.files) == ["error_alpha0.4.csv", "error_alpha1.2.csv",
                                 "solution_alpha0.4.csv", "solution_alpha1.2.csv"]


def test_run_meta_records_the_package_checkout(tmp_path, monkeypatch):
    # git_rev names the checkout fracrbf was imported from, whatever the
    # caller's working directory
    package = Path(harness.__file__).parent
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=package,
                         capture_output=True, text=True).stdout.strip() or "unknown"
    monkeypatch.chdir(tmp_path)
    RunReport(label="demo").write(tmp_path / "out")
    assert f"git_rev={rev}\n" in (tmp_path / "out" / "run_meta.txt").read_text()


def test_git_rev_survives_a_git_timeout(tmp_path, monkeypatch):
    # a git call that hits its timeout leaves the revision unknown instead of
    # failing the report
    def timeout(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))
    monkeypatch.setattr(harness.subprocess, "run", timeout)
    RunReport(label="demo").write(tmp_path)
    assert "git_rev=unknown\n" in (tmp_path / "run_meta.txt").read_text()


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
    # regression pin of the full default sweep. Relative 1e-9 does not absorb
    # rounding noise: the 4-ulp envelope (tests/envelope.csv) of E and Ehat
    # is about 4e-9 at N=8 and 3e-3 at N=16. So this pins the bits of one
    # arithmetic order, and a change of rounding re-freezes the values here
    # once `tests/perturb.py --check` has classed these cells inside
    rep = preset_table2()
    ns = [r.n for r in rep.rows]
    assert ns == [2, 4, 8, 16]
    expect = [
        (0.010472334562958041, 0.142418642604258, 2947.4735597553567),
        (0.007973418308831859, 0.0266910984438397, 290390.6321256796),
        (0.000453745959626907, 0.0008604432256996374, 2084009949.2349632),
        (2.0384051377281037e-06, 1.9001549552029601e-06, 6.4687264996550024e+16),
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
    # pocon on the Cholesky factor of A_phi; gecon on its LU gave
    # 4775364449295.637 and 10659492404674.416, and the exact cond_1 is
    # 8.24e13 and 4.32e14, so both estimates are lower bounds
    (lambda: preset_fig_disk(alphas=(0.4, 1.2)), [
        (111, 0.03337223199354429, None, 5691755093619.066),
        (111, 0.034032266432048146, None, 30328388819548.43),
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
    assert rep.rows[0].e == pytest.approx(0.018546296310718163, rel=1e-9)
    assert rep.rows[1].e == pytest.approx(0.0007332551378838013, rel=1e-9)
    # 2D rate derivation uses the per-axis point-count ratio
    ref_rate = math.log(rep.rows[0].e / rep.rows[1].e) / (math.log(31 / 13) / 2.0)
    assert rep.rows[1].rate_e == pytest.approx(ref_rate, rel=1e-12)


@pytest.mark.parametrize("run", [
    lambda: preset_fig_disk(alphas=(0.4, 1.2)),
    lambda: preset_table5(levels=(3, 5)),
    lambda: preset_table6(hs=(0.5, 0.25)),
], ids=["fig-disk", "table5", "table6"])
def test_steady_presets_free_each_system(run, monkeypatch):
    # a system kept alive into the next assembly doubles the peak memory
    systems, live_at_assembly = [], []
    assemble = harness.assemble

    def tracked(*args, **kwargs):
        live_at_assembly.append(sum(ref() is not None for ref in systems))
        sm = assemble(*args, **kwargs)
        systems.append(weakref.ref(sm))
        return sm
    monkeypatch.setattr(harness, "assemble", tracked)
    run()
    assert live_at_assembly == [0, 0]


def _lattice_qg_operators(h, alpha, eps):
    ps = disk_grid(h)
    return qg_operators(ps, GmqBasis(ps.points, FracParams(2, alpha), eps, K=32, M=64))


@pytest.mark.parametrize("run, n_factors", [
    (lambda: preset_fig_disk(alphas=(0.4, 1.2)), 4),
    (lambda: _lattice_qg_operators(1 / 8, 1.5, 0.2), 3),
], ids=["fig-disk", "qg-operators"])
def test_no_factor_outlives_its_use(run, n_factors, monkeypatch):
    # an LU or Cholesky factor kept after its use sits in memory beside the
    # next one, 82 MB per factor at N=3209
    factors, live_at_factor = [], []

    def tracking(factor):
        def tracked(*args):
            live_at_factor.append(sum(ref() is not None for ref in factors))
            result = factor(*args)
            factors.append(weakref.ref(result[0]))
            return result
        return tracked
    # _factor's LU of S, and _phi_factor's Cholesky or LU factor of A_phi
    for fname in ("_factor", "_phi_factor"):
        tracked = tracking(getattr(linsys, fname))
        for name, mod in list(sys.modules.items()):
            if name.startswith("fracrbf.") and hasattr(mod, fname):
                monkeypatch.setattr(mod, fname, tracked)
    run()
    assert live_at_factor == [0] * n_factors


def test_manufactured_backward_error_holds_at_every_seed():
    # the forward check exceeds its 1e-10 at some seeds, as cond(S) up to
    # 3e7 allows; the backward error of the same solves stays below n*u
    (check, tol), = [(c, t) for n, c, t in checks.CHECKS
                     if n == "manufactured-backward-error"]
    assert max(check(seed=seed) for seed in range(100)) <= tol


def test_every_public_name_is_used_in_src():
    # a name in a module's __all__ that nothing else in src/ mentions is
    # test-only code; it belongs under tests/
    package = Path(harness.__file__).parent
    sources = {p: p.read_text() for p in package.glob("*.py")}
    unused = []
    for path, text in sources.items():
        tree = ast.parse(text)
        exported = [node for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
        if not exported:
            continue
        skip = set(range(exported[0].lineno, exported[0].end_lineno + 1))
        for name in ast.literal_eval(exported[0].value):
            word = re.compile(rf"\b{re.escape(name)}\b")
            header = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
            uses = sum(1 for other, body in sources.items()
                       for i, line in enumerate(body.splitlines(), 1)
                       if word.search(line)
                       and not (other == path and (i in skip or header.match(line))))
            if uses == 0:
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_run_path_does_not_load_adaptive_quadrature():
    # scipy.integrate (and scipy.optimize, which it pulls in) serve only the
    # verify suite; the CLI, the presets and the benchmark must not pay for them
    probe = ("import sys, fracrbf, fracrbf.cli, fracrbf.harness\n"
             "print(sorted({'scipy.integrate', 'scipy.optimize'} & sys.modules.keys()))\n"
             "import fracrbf.checks\n"
             "print('scipy.integrate' in sys.modules)\n")
    src = str(Path(harness.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["[]", "True"]
