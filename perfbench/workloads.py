"""The three benchmark workloads: one op is one `harness` preset call.

Each workload maps a seed to one physical parameter from a small fixed
set; every choice leaves the work (point set, matrix sizes, LU count,
step count) unchanged, and seed 0 is the paper's configuration. Outputs
are checked against references.json, which make_references.py writes.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# disk-lattice passes while E stays within this factor of its reference:
# an accuracy regression beyond it counts the op as failed.
E_BOUND_FACTOR = 1.25
# square-sweep and qg-vortex outputs: relative tolerance to the reference.
# Reruns in one process already differ in the last digit of cond, so the
# comparison is never bitwise.
RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    choices: tuple

    def param(self, seed):
        return self.choices[seed % len(self.choices)]

    def key(self, seed):
        return param_key(self.param(seed))


def param_key(param):
    if isinstance(param, tuple):
        return ",".join(repr(a) for a in param)
    return repr(param)


# Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("disk-lattice", (1.2, 1.0, 1.4, 0.8)),  # alpha
        Workload("square-sweep", ((0.4, 0.8, 1.2, 1.6), (0.3, 0.7, 1.1, 1.5),
                                  (0.5, 0.9, 1.3, 1.7), (0.6, 1.0, 1.4, 1.8))),  # alphas
        Workload("qg-vortex", (0.001, 0.002, 0.0015, 0.003)),  # kappa
    )
}


def run_op(harness, name, param):
    """One op: the preset call a user runs, reduced to the outputs checked."""
    if name == "disk-lattice":
        row = harness.preset_table6(alpha=param, hs=(1.0 / 32.0,)).rows[-1]
        return {"n": row.n, "E": row.e, "cond": row.cond}
    if name == "square-sweep":
        rows = harness.preset_fig_square(alphas=param).rows
        return {"n": rows[-1].n, "cond": [r.cond for r in rows]}
    if name == "qg-vortex":
        row = harness.preset_fig_qg(kappa=param).rows[-1]
        return {"n": row.n, "peak": row.e, "ratio": row.ehat}
    raise ValueError(f"unknown workload {name!r}")


def _values(value):
    return value if isinstance(value, list) else [value]


def check(name, out, ref):
    """Problems found in one op's outputs; an empty list means it passed."""
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for value in out.values() for v in _values(value)):
        return [f"non-finite output {out}"]
    problems = []
    if out["n"] != ref["n"]:
        problems.append(f"N={out['n']}, reference {ref['n']}")
    if name == "disk-lattice":
        if not out["E"] <= E_BOUND_FACTOR * ref["E"]:
            problems.append(f"E={out['E']:.6e} above {E_BOUND_FACTOR} x {ref['E']:.6e}")
        return problems
    for key in ref.keys() - {"n"}:
        got, want = _values(out[key]), _values(ref[key])
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} values, reference {len(want)}")
        problems += [f"{key}={g!r}, reference {w!r} (rtol {RTOL})"
                     for g, w in zip(got, want) if abs(g - w) > RTOL * abs(w)]
    return problems


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)
