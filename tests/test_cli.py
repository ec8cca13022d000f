"""Command-line interface: subcommands, config files, exit codes."""

import numpy as np
import pytest

from fracrbf import cli


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
], ids=["negative-dt", "empty-sweep", "fractional-steps", "removed-scale-flag"])
def test_configuration_errors_exit_one(argv, capsys):
    assert _exit_code(argv) == 1
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
    # one data row for the single requested size (8 interior + 2 ends)
    assert any(line.strip().startswith("10") for line in out.splitlines())


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


def test_evolve_short_run(capsys):
    rc = cli.main(["evolve", "--L", "4", "--J", "6", "--dt", "0.01",
                   "--t-end", "0.05", "--chi", "0.5", "--quad-K", "16",
                   "--quad-M", "32"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "peak=" in ln]
    assert len(lines) >= 2
    peaks = [float(ln.split("peak=")[1].split()[0]) for ln in lines]
    assert peaks[-1] < peaks[0]


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


def test_preset_rejects_unknown_name():
    with pytest.raises(SystemExit) as exc:
        cli.main(["preset", "table99"])
    assert exc.value.code == 1


def test_verify_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("ok ") >= 5
    assert "FAIL" not in out


def test_snapshot_output_dir(tmp_path):
    out = tmp_path / "snaps"
    rc = cli.main(["evolve", "--L", "3", "--J", "5", "--dt", "0.01",
                   "--t-end", "0.02", "--quad-K", "16", "--quad-M", "32",
                   "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert "mixed_manifest.csv" in files
    assert sum(name.startswith("mixed_t") for name in files) >= 2
