"""Smoke test of the ulp-perturbation script `perturb.py`."""

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
