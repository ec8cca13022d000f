"""Ulp-perturbation envelope of the three fragile goldens and every preset.

Run from the repository root:

    PYTHONPATH=src python tests/perturb.py

Each case runs once as it stands and once per seed 0 to 19 with its
inputs jittered by k ulp, k drawn uniformly from [-4, 4] by
numpy.random.default_rng(seed):

- the interior point coordinates of every layout `harness` builds
  (boundary points stay on the boundary);
- the Gauss weights of every tail quadrature (`exterior.gauss_legendre_01`).

For each row it records the largest relative spread of E, Ehat and cond
against the unjittered run and writes the tables to GOLDEN_ENVELOPE.md next
to this file. A rounding change that moves a value by less than its
envelope is indistinguishable from reordering the same arithmetic. The
file name keeps pytest from collecting this script.
"""

import os

# one BLAS thread, as the preset comparisons run; set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import platform
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from fracrbf import exterior, harness
from fracrbf.dynamics import EvolutionConfig, crank_nicolson_mixed, mixed_operators
from fracrbf.geometry import PointSet
from fracrbf.rbf import GmqBasis
from fracrbf.specialfun import FracParams

SEEDS = tuple(range(20))
ULPS = 4
LAYOUTS = ("uniform_interval", "polar_layout", "disk_grid", "clipped_grid")
COLUMNS = ("e", "ehat", "cond")
OUT = Path(__file__).resolve().with_name("GOLDEN_ENVELOPE.md")


def _jitter(values, rng):
    """values moved by k ulp each, k uniform in [-ULPS, ULPS]."""
    return values + rng.integers(-ULPS, ULPS + 1, size=values.shape) * np.spacing(values)


@contextmanager
def _jittered(seed):
    """Rebind the layouts harness calls and the Gauss rule of the tails to
    jittered versions drawing from one generator; restore them on exit."""
    rng = np.random.default_rng(seed)
    layouts = {name: getattr(harness, name) for name in LAYOUTS}
    gauss = exterior.gauss_legendre_01

    def layout(fn):
        def jittered(*args, **kwargs):
            ps = fn(*args, **kwargs)
            pts = ps.points.copy()
            pts[:ps.n_interior] = _jitter(pts[:ps.n_interior], rng)
            return PointSet(pts, ps.n_interior)
        return jittered

    def rule(K):
        nodes, weights = gauss(K)
        return nodes, _jitter(weights, rng)

    for name, fn in layouts.items():
        setattr(harness, name, layout(fn))
    exterior.gauss_legendre_01 = rule
    try:
        yield
    finally:
        for name, fn in layouts.items():
            setattr(harness, name, fn)
        exterior.gauss_legendre_01 = gauss


def _mixed_golden():
    """The computation of test_mixed_diffusion_peak_regression: final peak
    per chi of the width-4 Gaussian on polar_layout(8, 8), in E."""
    ps = harness.polar_layout(8, 8)
    ops = mixed_operators(ps, GmqBasis(ps.points, FracParams(2, 1.0), 1.0, K=32, M=64))
    u0 = np.exp(-4.0 * np.sum(ps.interior * ps.interior, axis=1))
    rows = []
    for chi in (0.0, 0.5, 1.0):
        _, fields = crank_nicolson_mixed(ops, EvolutionConfig(dt=0.001, t_end=0.5), u0, chi)
        rows.append(harness.RunRow(n=ps.n_total, e=float(np.max(np.abs(fields[-1])))))
    return rows


CASES = (
    ("golden test_preset_table2_frozen_rows", lambda: harness.preset_table2().rows),
    ("golden test_preset_table5_small_levels",
     lambda: harness.preset_table5(levels=(3, 5)).rows),
    ("golden test_mixed_diffusion_peak_regression", _mixed_golden),
) + tuple((f"preset {name}", lambda fn=fn: fn().rows) for name, fn in harness.PRESETS.items())


def _spread(base, runs, col):
    ref = getattr(base, col)
    if ref is None:
        return None
    return max(abs(getattr(r, col) - ref) / abs(ref) for r in runs)


def _cell(v):
    return "-" if v is None else f"{v:.2e}"


def _measure(run):
    base = run()
    perturbed = []
    for seed in SEEDS:
        with _jittered(seed):
            perturbed.append(run())
    lines = ["| row | N | E | spread E | Ehat | spread Ehat | spread cond |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for i, row in enumerate(base):
        others = [rows[i] for rows in perturbed]
        if any(r.n != row.n for r in others):
            raise RuntimeError(f"row {i}: N changed under the jitter")
        spreads = [_spread(row, others, col) for col in COLUMNS]
        lines.append(f"| {i} | {row.n} | {_cell(row.e)} | {_cell(spreads[0])} | "
                     f"{_cell(row.ehat)} | {_cell(spreads[1])} | {_cell(spreads[2])} |")
    return lines


def main():
    doc = [
        "# Ulp-perturbation envelope",
        "",
        f"Written by `PYTHONPATH=src python tests/perturb.py` at commit {harness._git_rev()}",
        f"(python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, OPENBLAS_NUM_THREADS="
        f"{os.environ['OPENBLAS_NUM_THREADS']}).",
        "",
        f"Each case ran unjittered and with seeds {SEEDS[0]}-{SEEDS[-1]}: interior point",
        f"coordinates and tail Gauss weights moved by k ulp, k uniform in [-{ULPS}, {ULPS}].",
        "A spread is max over the seeds of |jittered - unjittered| / |unjittered|; E and",
        "Ehat are the unjittered values. `-` marks a column the case does not fill.",
    ]
    for title, run in CASES:
        print(f"{title} ...", flush=True)
        doc += ["", f"## {title}", ""] + _measure(run)
    OUT.write_text("\n".join(doc) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
