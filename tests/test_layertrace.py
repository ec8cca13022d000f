"""The benchmark's layer trace (perfbench/layertrace.py, imported as it is)
against the library: the counts it reads off the tail factors, their
products, the LU calls and the time steps of four small presets, in 1D and 2D."""

from pathlib import Path

import pytest

from fracrbf import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name, kwargs, counts", [
    ("table2", dict(ns=(2, 4)),
     {"exterior.tail_nodes": 384, "exterior.tail_flops": 10368, "linsys.lu_count": 4}),
    # the LU of S; cond(A_phi) comes from a Cholesky factor, which the trace
    # does not count
    ("table6", dict(hs=(0.5,)),
     {"exterior.tail_nodes": 2048, "exterior.tail_flops": 479232, "linsys.lu_count": 1}),
    # one LU per Crank-Nicolson matrix, one per chi; the nodal operators'
    # A_phi (beta < 0) is Cholesky-factored, which the trace does not count
    ("fig-mixed", dict(dt=0.1, t_end=0.2), {"linsys.lu_count": 3}),
    # the LU of S for the stream map (the coefficient map's A_phi is
    # Cholesky-factored, uncounted), then three velocity products per
    # SSP-RK3 step
    ("fig-qg", dict(grid_h=0.25, t_end=0.08),
     {"linsys.lu_count": 1, "linsys.lu_flops": 99251, "dynamics.steps": 8,
      "dynamics.stream_solves": 24}),
], ids=["table2", "table6", "fig-mixed", "fig-qg"])
def test_trace_counts(name, kwargs, counts, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    tracer = layertrace.Tracer()
    uninstall = layertrace.install(tracer)
    try:
        _, record = tracer.op(lambda: harness.PRESETS[name](**kwargs))
    finally:
        uninstall()
    assert {k: record["counts"][k] for k in counts} == counts
