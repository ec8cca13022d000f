"""The ulp-perturbation script `perturb.py`: its jitter, its envelope file and
its gate."""

import math

import numpy as np
import pytest

import perturb
from fracrbf import exterior, harness


def test_jittered_preset_stays_close_and_restores_the_rules():
    gauss = exterior.gauss_legendre_01
    layouts = {name: getattr(harness, name) for name in perturb.LAYOUTS}
    base = harness.preset_table2(ns=(2,)).rows
    with perturb._jittered(0):
        assert exterior.gauss_legendre_01 is not gauss
        jittered = harness.preset_table2(ns=(2,)).rows
    assert [r.n for r in jittered] == [r.n for r in base]
    for got, ref in zip(jittered, base):
        for col in ("e", "ehat"):
            assert getattr(got, col) == pytest.approx(getattr(ref, col), rel=1e-6)
    assert exterior.gauss_legendre_01 is gauss
    assert all(getattr(harness, name) is fn for name, fn in layouts.items())


def test_classify_synthetic_cells():
    margin = 1.5
    assert perturb.classify(0.1, repr(0.1), 1e-12, margin) == ("identical", 0.0)
    kind, ratio = perturb.classify(0.1 * (1 + 1e-12), repr(0.1), 1e-12, margin)
    assert kind == "inside" and ratio == pytest.approx(1.0, rel=1e-3)
    kind, ratio = perturb.classify(0.1 * (1 + 2e-12), repr(0.1), 1e-12, margin)
    assert kind == "outside" and ratio == pytest.approx(2.0, rel=1e-3)
    # a cell that never moved under the jitter must stay identical
    assert perturb.classify(1.0, repr(1.0), 0.0, margin) == ("identical", 0.0)
    assert perturb.classify(np.nextafter(1.0, 2.0), repr(1.0), 0.0, margin)[0] == "outside"
    assert perturb.classify(3, "2", 0.0, margin)[0] == "outside"


def test_margin_is_the_largest_leave_one_out_ratio():
    # the seed at 4e-3 against the largest of the others, 2e-3; a cell that
    # never moved, or kept no digit (spread >= 1), does not count
    shifts = [[1e-3, 2e-3, 4e-3], [0.0, 0.0, 0.0], [0.5, 60.0, 0.6]]
    assert perturb.margin_of(shifts) == (2.0, 3, 1)
    assert perturb.margin_of([[0.0, 0.0, 1e-3]])[0] == math.inf


def test_envelope_covers_exactly_the_cases():
    # a case added or renamed without regenerating envelope.csv fails here
    header, cells = perturb.read_envelope(perturb.ENVELOPE)
    assert list(dict.fromkeys(case for case, _, _ in cells)) == [t for t, _ in perturb.CASES]
    assert {col for _, _, col in cells} <= set(perturb.COLUMNS)
    assert 1.0 <= float(header["margin"]) < math.inf
    assert header["OPENBLAS_NUM_THREADS"] == "1"


def test_check_flags_a_moved_value_and_another_thread_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(perturb, "CASES", (("tiny", lambda: harness.preset_table2(ns=(2, 4)).rows),))
    path = tmp_path / "envelope.csv"
    perturb.generate(path)
    assert perturb.check(path) == 0
    assert "total: 8 identical, 0 inside, 0 outside" in capsys.readouterr().out
    text = path.read_text()
    e = repr(harness.preset_table2(ns=(2,)).rows[0].e)
    path.write_text(text.replace(f"tiny,0,e,{e},", f"tiny,0,e,{float(e) * 1.001!r},"))
    assert perturb.check(path) == 1
    assert "row 0 e: outside" in capsys.readouterr().out
    # another thread count than the one the envelope was written at, which
    # is the suite's own
    other = "2" if perturb.read_envelope(path)[0]["OPENBLAS_NUM_THREADS"] == "1" else "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", other)
    path.write_text(text)
    assert perturb.check(path) == 1
