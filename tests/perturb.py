"""Ulp-perturbation envelope of the three fragile goldens and every preset,
and the gate that checks a tree against it.

Run from the repository root:

    PYTHONPATH=src python tests/perturb.py           # regenerate envelope.csv
    PYTHONPATH=src python tests/perturb.py --check   # class this tree's cells

Each case runs once as it stands and once per seed 0 to 19 with its
inputs jittered by k ulp, k drawn uniformly from [-4, 4] by
numpy.random.default_rng(seed):

- the interior point coordinates of every layout `harness` builds
  (boundary points stay on the boundary);
- the Gauss weights of every tail quadrature (`exterior.gauss_legendre_01`).

A cell is one column (N, E, Ehat, cond) of one row of one case. Its shift
under a seed is |jittered - unjittered| / |unjittered|, and its spread is
the largest shift over the seeds. `envelope.csv`, next to this file, holds
each cell's unjittered value as `repr` and its spread. Its header holds the
commit, the versions, the BLAS thread count and the margin: the largest
leave-one-out ratio over every cell and seed, a seed's shift over the
largest shift of the other seeds, taken over the cells whose spread lies in
(0, 1). So the margin is how far past the spread of 20 draws one more draw
of the same noise went on the generating tree.

`--check` runs each case once, unjittered, and classes every cell as
`identical` (same `repr`), `inside` (shift <= margin * spread) or
`outside`. It exits 1 if a cell is outside, or if it runs at a BLAS thread
count other than the file's. A rounding change inside the envelope is
indistinguishable from reordering the same arithmetic. The file name keeps
pytest from collecting this script.
"""

import os

# one BLAS thread, as the preset comparisons run; set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import math
import platform
import sys
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
COLUMNS = ("n", "e", "ehat", "cond")
ENVELOPE = Path(__file__).resolve().with_name("envelope.csv")
FIELDS = ("case", "row", "column", "value", "spread")


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


def _cells(rows):
    """{(row, column): value} of every filled column of rows."""
    return {(i, col): getattr(row, col) for i, row in enumerate(rows)
            for col in COLUMNS if getattr(row, col) is not None}


def _shift(value, ref):
    """|value - ref| / |ref|, 0 when the two are equal."""
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref else math.inf


def classify(value, stored, spread, margin):
    """(class, shift / spread) of a cell that reads value, against the
    envelope's `repr` stored and its spread."""
    if repr(value) == stored:
        return "identical", 0.0
    shift = _shift(value, float(stored))
    ratio = shift / spread if spread else (0.0 if shift == 0.0 else math.inf)
    return ("inside" if shift <= margin * spread else "outside"), ratio


def margin_of(shifts):
    """The largest leave-one-out ratio, a seed's shift over the largest shift
    of the other seeds, over the cells whose spread lies in (0, 1); also the
    number of those (cell, seed) pairs and of their ratios above 1. A cell
    with no spread must stay identical, and one with a spread of 1 or more
    keeps no significant digit under the jitter, so neither sets the
    margin. A seed that moved where no other did has ratio inf."""
    ratios = []
    for seeds in shifts:
        if not 0.0 < max(seeds) < 1.0:
            continue
        for i, s in enumerate(seeds):
            rest = max(seeds[:i] + seeds[i + 1:])
            ratios.append(s / rest if rest else math.inf)
    return max(ratios), len(ratios), sum(r > 1.0 for r in ratios)


def _measure(run):
    """The unjittered cells of run and, per cell, its shift under each seed."""
    base = _cells(run())
    shifts = {key: [] for key in base}
    for seed in SEEDS:
        with _jittered(seed):
            cells = _cells(run())
        if cells.keys() != base.keys() or any(cells[k] != v for k, v in base.items()
                                               if k[1] == "n"):
            raise RuntimeError(f"seed {seed}: the rows changed under the jitter")
        for key, ref in base.items():
            shifts[key].append(_shift(cells[key], ref))
    return base, shifts


def read_envelope(path):
    """(header, cells) of an envelope file: the `# key=value` lines as a
    dict, and {(case, row, column): (stored repr, spread)}."""
    lines = Path(path).read_text().splitlines()
    header = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    cells = {(r["case"], int(r["row"]), r["column"]): (r["value"], float(r["spread"]))
             for r in csv.DictReader(line for line in lines if not line.startswith("#"))}
    return header, cells


def generate(path):
    """Measure every case under the seeds and write the envelope to path."""
    table, all_shifts = [], []
    for title, run in CASES:
        print(f"{title} ...", flush=True)
        base, shifts = _measure(run)
        for (i, col), value in base.items():
            table.append((title, i, col, repr(value), repr(max(shifts[(i, col)]))))
            all_shifts.append(shifts[(i, col)])
    margin, pairs, above = margin_of(all_shifts)
    if not math.isfinite(margin):
        raise RuntimeError("a cell moved under one seed only; its envelope is undefined")
    header = [
        "written_by=PYTHONPATH=src python tests/perturb.py",
        f"seeds={SEEDS[0]}-{SEEDS[-1]}",
        f"ulps={ULPS}",
        f"commit={harness._git_rev()}",
        f"python={platform.python_version()}",
        f"numpy={np.__version__}",
        f"scipy={scipy.__version__}",
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}",
        f"margin={margin!r}",
        "margin_cells=spread in (0, 1)",
        f"margin_pairs={pairs}",
        f"margin_ratios_above_1={above}",
    ]
    with Path(path).open("w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in header)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIELDS)
        writer.writerows(table)
    print(f"margin {margin:.3g} over {pairs} cell-seed pairs, {above} above 1")
    print(f"wrote {path}")


def check(path):
    """Class every cell of this tree against the envelope at path; 0 if none
    is outside, 1 otherwise or at another BLAS thread count."""
    header, envelope = read_envelope(path)
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    if threads != header["OPENBLAS_NUM_THREADS"]:
        print(f"OPENBLAS_NUM_THREADS={threads}, but the envelope was written at "
              f"{header['OPENBLAS_NUM_THREADS']}")
        return 1
    margin = float(header["margin"])
    print(f"against {Path(path).name} of commit {header['commit']}, margin {margin:.3g}")
    totals = dict.fromkeys(("identical", "inside", "outside"), 0)
    for title, run in CASES:
        cells = {(title, *key): value for key, value in _cells(run()).items()}
        counts = dict.fromkeys(totals, 0)
        lines = []
        for key in sorted(cells.keys() | {k for k in envelope if k[0] == title},
                          key=lambda k: (k[1], COLUMNS.index(k[2]))):
            if key not in cells or key not in envelope:
                kind, note = "outside", "in only one of this run and the envelope"
            else:
                (stored, spread), value = envelope[key], cells[key]
                kind, ratio = classify(value, stored, spread, margin)
                note = f"{stored} -> {value!r}, shift / spread {ratio:.3g}"
            counts[kind] += 1
            if kind != "identical":
                lines.append(f"  row {key[1]} {key[2]}: {kind}, {note}")
        print(f"{title}: " + ", ".join(f"{n} {kind}" for kind, n in counts.items()))
        for line in lines:
            print(line)
        for kind, n in counts.items():
            totals[kind] += n
    for title in sorted({key[0] for key in envelope} - {title for title, _ in CASES}):
        print(f"{title}: outside, a case of the envelope that no longer runs")
        totals["outside"] += 1
    print("total: " + ", ".join(f"{n} {kind}" for kind, n in totals.items()))
    return 1 if totals["outside"] else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="class this tree's cells against envelope.csv; exit 1 if any is outside")
    if parser.parse_args(argv).check:
        return check(ENVELOPE)
    generate(ENVELOPE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
