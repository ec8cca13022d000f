"""Command-line interface: subcommands, config files, exit codes."""

import re

import numpy as np
import pytest

from fracrbf import checks, cli, dynamics, harness
from fracrbf.checks import CHECKS
from fracrbf.geometry import polar_layout, uniform_interval
from fracrbf.linsys import assemble
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["forward", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_unknown_config_key_returns_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not-a-real-knob = 5\n")
    assert cli.main(["forward", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_returns_one(tmp_path):
    assert cli.main(["forward", "--config", str(tmp_path / "nope.cfg")]) == 1


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["evolve", "--dt", "-1"],
    ["forward", "--n", "0"],
    ["qg", "--L", "3", "--t-end", "0.015", "--dt", "0.01"],
    ["forward", "--scale", "2"],
    ["preset", "fig-disk", "--alpha", "0.5", "--chi", "0.3"],
    ["preset", "table2", "--eps-factor", "3", "--dim", "2", "--seed", "4"],
    # each subcommand takes only the flags it reads
    ["verify", "--alpha", "0.5"],
    ["qg", "--chi", "0.3"],
    ["evolve", "--kappa", "1"],
    ["forward", "--seed", "3"],
    # --grid-h picks the lattice grid, --L and --J the polar layout
    ["qg", "--grid-h", "0.25", "--L", "3"],
    ["evolve", "--grid-h", "0.25", "--J", "5"],
    ["forward", "--dim", "2", "--grid-h", "0.25", "--L", "3"],
    ["solve", "--dim", "2", "--grid-h", "0.25", "--J", "3"],
    # a flag the chosen --dim or --case never reads
    ["forward", "--dim", "1", "--L", "5", "--n", "4"],
    ["forward", "--dim", "2", "--n", "4"],
    ["solve", "--dim", "1", "--case", "smooth", "--p", "3"],
    ["solve", "--dim", "1", "--quad-M", "32"],
], ids=["negative-dt", "empty-sweep", "fractional-steps", "removed-scale-flag",
        "preset-alpha-chi", "preset-eps-factor-dim-seed", "verify-alpha", "qg-chi",
        "evolve-kappa", "forward-seed", "qg-grid-h-L", "evolve-grid-h-J",
        "forward-grid-h-L", "solve-grid-h-J", "forward-dim1-L", "forward-dim2-n",
        "solve-smooth-p", "solve-dim1-quad-M"])
def test_configuration_errors_exit_one(argv, capsys):
    assert _exit_code(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["forward", "--eps", "inf", "--n", "4"], "eps"),
    (["solve", "--eps-factor", "inf", "--n", "4"], "eps"),
    (["preset", "table2", "--eps", "inf"], "eps"),
    (["evolve", "--L", "3", "--dt", "inf", "--t-end", "0.5"], "dt"),
    (["evolve", "--L", "3", "--t-end", "inf"], "t_end"),
    (["evolve", "--L", "3", "--t-end", "nan"], "t_end"),
    (["evolve", "--L", "3", "--dt", "1e-300", "--t-end", "1e10"], "t_end/dt"),
    (["evolve", "--L", "3", "--dt", "1e-9", "--t-end", "1"], "steps"),
    (["evolve", "--L", "3", "--chi", "nan"], "chi"),
    (["qg", "--L", "3", "--kappa", "nan"], "kappa"),
    (["qg", "--L", "3", "--kappa", "inf"], "kappa"),
    (["solve", "--p", "inf", "--n", "4"], "p"),
    (["solve", "--p", "nan", "--n", "4"], "p"),
], ids=["forward-eps-inf", "solve-eps-factor-inf", "preset-eps-inf", "evolve-dt-inf",
        "evolve-t-end-inf", "evolve-t-end-nan", "evolve-step-count", "evolve-step-bound",
        "evolve-chi-nan", "qg-kappa-nan", "qg-kappa-inf", "solve-p-inf", "solve-p-nan"])
def test_non_finite_values_exit_one(argv, name, capsys):
    # each value is refused where it is consumed, before any result is printed
    assert _exit_code(argv + ["--quad-K", "16"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert re.search(rf"\b{re.escape(name)}\b", captured.err)


@pytest.mark.parametrize("command", ["solve", "forward"])
def test_interval_with_one_interior_node_exits_one(command, monkeypatch, capsys):
    # --n counts interior nodes; one leaves the measurement grid empty, so
    # the sweep is refused before any system is assembled or interpolated
    def built(*args, **kwargs):
        raise AssertionError("a system was built")
    monkeypatch.setattr(harness, "assemble", built)
    monkeypatch.setattr(harness, "interpolate", built)
    assert _exit_code([command, "--dim", "1", "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --n 1:")
    assert "n >= 2 interior nodes" in captured.err


def test_evolve_and_qg_read_point_set_flags_alike(monkeypatch):
    # stop each run at its first use of the point set and record its size
    seen = []

    def stop(ps, *args, **kwargs):
        seen.append(ps.n_total)
        raise ValueError("stop")
    monkeypatch.setattr(harness, "mixed_operators", stop)
    monkeypatch.setattr(harness, "qg_operators", stop)
    for command in ("evolve", "qg"):
        for flags in (["--grid-h", "0.25"], ["--L", "3"], ["--J", "5"]):
            assert cli.main([command] + flags) == 1
    # disk_grid(0.25), polar_layout(3, 3), polar_layout(8, 5)
    assert seen == [53, 13, 49] * 2


@pytest.mark.parametrize("argv", [["qg", "--kappa", "-1"], ["evolve", "--chi", "2"]],
                         ids=["qg-kappa", "evolve-chi"])
def test_bad_coefficient_exits_one_before_any_build(argv, monkeypatch, capsys):
    # chi and kappa are checked with the schedule, before the system that
    # both operator builders start from is assembled
    built = []
    assemble_system = dynamics.assemble

    def spy(*args):
        built.append(args)
        return assemble_system(*args)
    monkeypatch.setattr(dynamics, "assemble", spy)
    assert cli.main(argv + ["--L", "3", "--quad-K", "16"]) == 1
    assert built == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_eps_factor_sweep_records_the_factor(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert cli.main(["forward", "--dim", "1", "--n", "4", "--eps-factor", "3",
                     "--quad-K", "16", "--out", str(out)]) == 0
    meta = (out / "run_meta.txt").read_text().splitlines()
    assert "eps_factor=3.0" in meta
    assert not any(line.startswith("eps=") for line in meta)


@pytest.mark.parametrize("line", ["case = bogus", "dim = 3", "alpha = fast", "alph = 0.8"],
                         ids=["case-choice", "dim-choice", "alpha-type", "abbreviated-key"])
def test_invalid_config_value_returns_one(line, tmp_path, capsys):
    # config values go through the flag's own type and choices, and a key
    # must name its flag in full
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["forward", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_scale_config_key_exits_one(tmp_path):
    cfg = tmp_path / "scale.cfg"
    cfg.write_text("scale = 2\n")
    assert cli.main(["forward", "--config", str(cfg)]) == 1


def test_eps_flags_mutually_exclusive():
    assert cli.main(["forward", "--dim", "1", "--eps", "1.0",
                     "--eps-factor", "2.0"]) == 1


def test_forward_single_run(capsys):
    rc = cli.main(["forward", "--dim", "1", "--alpha", "0.8", "--n", "8",
                   "--quad-K", "32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha=0.8" in out
    assert "Ehat" in out
    # one data row for the single requested size; N counts the 8 interior
    # points, as the 1D tables do
    assert any(line.strip().startswith("8 ") for line in out.splitlines())


@pytest.mark.parametrize("argv, rows", [
    (["forward", "--dim", "1"], 5),
    (["forward", "--dim", "2", "--L", "3", "--J", "5", "--quad-K", "16", "--quad-M", "32"], 1),
], ids=["dim1", "dim2"])
def test_forward_times_every_row(argv, rows, monkeypatch, capsys):
    # each row's seconds cover its basis build through its residual; the
    # RunRow is read, since a short row prints 0.000 at three decimals
    reports = []
    monkeypatch.setattr(cli, "_print_report", reports.append)
    assert cli.main(argv) == 0
    (rep,) = reports
    assert len(rep.rows) == rows
    assert all(r.seconds > 0.0 for r in rep.rows)


def test_config_key_inside_config_file_exits_one(tmp_path, capsys):
    # the nested file would never be read, so the key is refused, not ignored
    cfg = tmp_path / "a.cfg"
    cfg.write_text("alpha = 0.8\nconfig = nothere.cfg\n")
    assert cli.main(["forward", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config file" in err and "'config = nothere.cfg'" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ndim = 1\nalpha = 0.8\nn = 8\nquad-K = 24\n")
    assert cli.main(["forward", "--config", str(cfg)]) == 0
    assert "alpha=0.8" in capsys.readouterr().out
    # explicit flags win over config values
    assert cli.main(["forward", "--config", str(cfg), "--alpha", "1.2"]) == 0
    assert "alpha=1.2" in capsys.readouterr().out


def test_solve_single_run(capsys):
    rc = cli.main(["solve", "--dim", "1", "--alpha", "1.2", "--n", "8",
                   "--quad-K", "32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "E" in out and "cond" in out


@pytest.mark.parametrize("argv, n, column, value", [
    (["forward", "--dim", "2", "--case", "smooth", "--L", "3", "--J", "5"], 19, "Ehat", 2.677e-3),
    (["solve", "--dim", "2", "--case", "smooth", "--grid-h", "0.5"], 13, "E", 4.471e-3),
], ids=["forward", "solve"])
def test_smooth_disk_sweep_error(argv, n, column, value, capsys):
    # the smooth case's closed-form f and exterior datum on the disk; the
    # forward row also adds the datum's tail to f (dropping it gives
    # Ehat 0.55)
    assert cli.main(argv + ["--quad-K", "16", "--quad-M", "32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, row = lines[1].split(), lines[2].split()
    assert int(row[0]) == n
    assert float(row[header.index(column)]) == pytest.approx(value, rel=1e-3)


def test_smooth_interval_solve_ehat(capsys):
    # the 1D smooth case has a nonzero exterior datum; Ehat compares the
    # clipped operator with f plus the datum's tail, as the collocation rows do
    # (dropping the tail gives Ehat 0.50)
    assert cli.main(["solve", "--dim", "1", "--case", "smooth", "--n", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, row = lines[1].split(), lines[2].split()
    assert int(row[0]) == 8
    assert float(row[header.index("Ehat")]) == pytest.approx(2.259e-4, rel=1e-3)


@pytest.mark.parametrize("argv, preset", [
    (["solve", "--dim", "1"], "table2"),
    (["solve", "--dim", "2", "--case", "smooth", "--alpha", "1", "--eps", "1.5",
      "--quad-K", "48", "--quad-M", "96"], "table5"),
], ids=["table2", "table5"])
def test_solve_sweep_is_the_table(argv, preset, tmp_path, capsys):
    # the sweep runs the presets' table loop, so its first four rows are the
    # table's, every cell (N, E, Ehat, both rates and cond) alike
    assert cli.main(argv + ["--out", str(tmp_path / "sweep")]) == 0
    assert cli.main(["preset", preset, "--out", str(tmp_path / "preset")]) == 0
    sweep, table = ((tmp_path / d / "results.csv").read_text().splitlines()
                    for d in ("sweep", "preset"))
    assert sweep[:5] == table[:5]


@pytest.mark.parametrize("argv, disk", [
    (["forward", "--n", "4"], False),
    (["solve", "--dim", "1", "--n", "4"], False),
    (["forward", "--dim", "2", "--L", "3", "--J", "5", "--quad-K", "16", "--quad-M", "32"], True),
], ids=["forward", "solve-dim1", "forward-dim2"])
def test_sweep_records_angular_rule_only_on_disk(argv, disk, tmp_path, capsys):
    # the 1D tail has no angular rule, so a 1D run must not record an M it never used
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    header = capsys.readouterr().out.splitlines()[0].split()
    meta = (tmp_path / "run_meta.txt").read_text().splitlines()
    for fields in (header, meta):
        assert [f for f in fields if f.startswith("M=")] == (["M=32"] if disk else [])
        assert ("K=16" if disk else "K=48") in fields


def test_evolve_short_run(capsys):
    rc = cli.main(["evolve", "--L", "4", "--J", "6", "--dt", "0.01",
                   "--t-end", "0.05", "--chi", "0.5", "--quad-K", "16",
                   "--quad-M", "32"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "peak=" in ln]
    assert len(lines) >= 2
    peaks = [float(ln.split("peak=")[1].split()[0]) for ln in lines]
    assert peaks[-1] < peaks[0]


@pytest.mark.parametrize("flags", [["--L", "1"], ["--L", "2", "--J", "1"]],
                         ids=["one-interior-node", "collinear"])
def test_qg_layout_without_spread_exits_one_before_any_build(flags, monkeypatch, capsys):
    # the initial field's anisotropy ratio is checked before the operators
    # are built: one interior node, or every interior node on one line
    built = []
    monkeypatch.setattr(harness, "qg_operators", lambda *args: built.append(args))
    assert cli.main(["qg"] + flags) == 1
    assert built == []
    assert "degenerate field" in capsys.readouterr().err


def test_qg_short_run(capsys):
    rc = cli.main(["qg", "--L", "4", "--J", "8", "--eps", "0.5", "--dt", "0.02",
                   "--t-end", "0.1", "--quad-K", "16", "--quad-M", "32"])
    assert rc == 0
    assert "anisotropy=" in capsys.readouterr().out


def test_qg_blowup_returns_two(capsys):
    rc = cli.main(["qg", "--L", "4", "--J", "8", "--eps", "0.5", "--dt", "2.0",
                   "--t-end", "8.0", "--quad-K", "16", "--quad-M", "32"])
    assert rc == 2
    assert "blow-up" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--dim", "2", "--L", "3", "--eps", "1e-300"],
    ["forward", "--dim", "2", "--L", "3", "--eps", "1e-200"],
], ids=["solve", "forward"])
def test_non_finite_system_exits_two(argv, tmp_path, capsys):
    # eps^2 underflows to 0, so the kernels' diagonals overflow to inf: S (solve)
    # and A_phi (forward) are refused at their factorization, before a row holds nan
    with np.errstate(divide="ignore", invalid="ignore"):
        assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 2
    out, err = capsys.readouterr()
    assert "non-finite pivot" in err
    assert "nan" not in out
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("exc", [ArithmeticError("2F1 series did not converge"),
                                 np.linalg.LinAlgError("singular matrix")],
                         ids=["arithmetic", "linalg"])
def test_numerical_failures_return_two(exc, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, which means a configuration error
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "_cmd_verify", fail)
    assert cli.main(["verify"]) == 2
    assert "error:" in capsys.readouterr().err


def test_preset_writes_report(tmp_path, capsys):
    out = tmp_path / "runs"
    rc = cli.main(["preset", "table2", "--out", str(out)])
    assert rc == 0
    assert (out / "results.csv").exists()
    assert (out / "timings.csv").exists()
    assert (out / "run_meta.txt").exists()
    assert (out / "plot.py").exists()


def test_preset_without_out_writes_fields_to_default_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["preset", "fig-disk"]) == 0
    out = tmp_path / "runs" / "fig-disk"
    assert (out / "results.csv").exists()
    assert (out / "solution_alpha0.4.csv").exists()


def test_preset_rejects_unknown_name():
    with pytest.raises(SystemExit) as exc:
        cli.main(["preset", "table99"])
    assert exc.value.code == 1


def test_verify_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    lines = out.splitlines()
    for name, _, _ in CHECKS:
        assert sum(line.startswith(f"ok {name} ") for line in lines) == 1
    assert "FAIL" not in out


def test_manufactured_solves_yield_s_not_its_lu():
    # the solve factors S in its own buffer, so the backward error must be
    # taken against a copy of S made before it
    layouts = ((uniform_interval(10), 1), (uniform_interval(12), 1), (polar_layout(3, 7), 2))
    solves = list(checks._manufactured_solves(11))
    assert len(solves) == len(layouts)
    for (ps, d), (s, b, lam_star, _) in zip(layouts, solves):
        fresh = assemble(ps, GmqBasis(ps.points, FracParams(d, 1.2), 1.0, K=32, M=48)).s
        assert np.array_equal(s, fresh)
        assert np.array_equal(b, fresh @ lam_star)


def test_verify_seed_reaches_seeded_checks(monkeypatch, capsys):
    seen = []

    def seeded(seed=11):
        seen.append(seed)
        return 0.0
    monkeypatch.setattr(checks, "CHECKS", (("seeded", seeded, 1e-10),
                                           ("plain", lambda: 0.0, 1e-10)))
    assert cli.main(["verify", "--seed", "5"]) == 0
    assert cli.main(["verify"]) == 0
    assert seen == [5, 11]


def test_snapshot_output_dir(tmp_path):
    out = tmp_path / "snaps"
    rc = cli.main(["evolve", "--L", "3", "--J", "5", "--dt", "0.01",
                   "--t-end", "0.02", "--quad-K", "16", "--quad-M", "32",
                   "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert "mixed_manifest.csv" in files
    assert sum(name.startswith("mixed_t") for name in files) >= 2


def test_snapshot_name_clash_exits_one(tmp_path, capsys):
    # six snapshot times within 5e-7 of each other print as one file name;
    # the run stops before its first step, with or without --out
    argv = ["evolve", "--L", "3", "--dt", "0.0000001", "--t-end", "0.0000005"]
    for extra in (["--out", str(tmp_path / "snaps")], []):
        assert cli.main(argv + extra) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "snaps").exists()
