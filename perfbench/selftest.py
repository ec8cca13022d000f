"""Tests of the benchmark itself (not collected by the repo's test run):

    python3 -m pytest -q perfbench/selftest.py

The end-to-end tests run the qg-vortex workload, the cheapest, three
times in subprocesses (about 40 s in all).
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


def _ref(name, seed=0):
    w = workloads.WORKLOADS[name]
    return copy.deepcopy(workloads.load_references()[name][w.key(seed)])


def test_references_cover_every_choice():
    refs = workloads.load_references()
    assert set(refs) == set(workloads.WORKLOADS)
    # disk-lattice is run by hand only (README.md says why).
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS) - {"disk-lattice"}
    for name, w in workloads.WORKLOADS.items():
        for seed in range(len(w.choices)):
            assert workloads.check(name, _ref(name, seed), _ref(name, seed)) == []


@pytest.mark.parametrize("name, key, factor", [
    ("disk-lattice", "E", 2.0),
    ("disk-lattice", "cond", math.inf),
    ("disk-lattice", "E", math.nan),
    ("square-sweep", "cond", 1.0 + 1e-5),
    ("qg-vortex", "peak", 1.0 + 1e-5),
    ("qg-vortex", "ratio", 1.0 - 1e-5),
    ("qg-vortex", "ratio", math.nan),
])
def test_perturbed_output_fails_its_check(name, key, factor):
    out = _ref(name)
    if isinstance(out[key], list):
        out[key][-1] *= factor
    else:
        out[key] *= factor
    assert workloads.check(name, out, _ref(name))


def test_wrong_point_count_fails_its_check():
    out = _ref("qg-vortex")
    out["n"] += 1
    assert workloads.check("qg-vortex", out, _ref("qg-vortex"))


def test_failing_op_is_counted_and_the_run_goes_on():
    ref = _ref("qg-vortex")
    results = iter([ZeroDivisionError("boom"), dict(ref, peak=ref["peak"] * 2), ref])

    def call():
        value = next(results)
        if isinstance(value, Exception):
            raise value
        return value

    ops = run.run_ops(lambda i: "untraced",
                      lambda kind: run.attempt(call, "qg-vortex", ref),
                      seconds=0.0, min_ops=3, gauge=lambda covering=0.0: {"all": hostspeed.REFERENCE_S})
    assert [o["ok"] for o in ops] == [False, False, True]
    assert ops[0]["problems"] == ["ZeroDivisionError: boom"]


def test_op_times_are_scaled_by_the_gauge_around_them():
    readings = iter([{"all": 1.0}, {"a": 1.0, "b": 2.0}, {"all": 2.0}])

    def gauge(covering=0.0):
        return next(readings)

    ops = run.run_ops(lambda i: "untraced",
                      lambda kind: {"seconds": 6.0, "ok": True},
                      seconds=0.0, min_ops=2, gauge=gauge)
    assert [o["gauge_s"] for o in ops] == [2.0, 2.5]
    assert run.median_scaled(ops) == pytest.approx(
        (6.0 / 2.0 + 6.0 / 2.5) / 2 * hostspeed.REFERENCE_S)


def test_install_wraps_reimports_and_uninstall_restores():
    harness = bootstrap.import_fracrbf()
    import fracrbf.linsys as linsys

    originals = (harness.assemble, linsys.phi_block, linsys._factor,
                 linsys.SystemMatrices.solve, harness.PRESETS["fig-qg"])
    uninstall = layertrace.install(layertrace.Tracer())
    try:
        wrapped = (harness.assemble, linsys.phi_block, linsys._factor,
                   linsys.SystemMatrices.solve, harness.PRESETS["fig-qg"])
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert harness.assemble is linsys.assemble
    finally:
        uninstall()
    assert (harness.assemble, linsys.phi_block, linsys._factor,
            linsys.SystemMatrices.solve, harness.PRESETS["fig-qg"]) == originals


def _bench(workload, seed, trace, cwd=bootstrap.ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT_DIR / "qg-vortex-seed0-trace{}.json".format(
        1 if "trace.op_s" in last["metrics"] else 0)).read_text())
    return last, record


@pytest.fixture(scope="module")
def qg_runs():
    untraced = _result(_bench("qg-vortex", 0, 0))
    traced = [_result(_bench("qg-vortex", 0, 1)) for _ in range(2)]
    return untraced, traced


def test_untraced_run_reports_every_end_to_end_metric(qg_runs):
    (last, record), _ = qg_runs
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert record["env"]["seed"] == 0 and record["env"]["numpy"]


def test_traced_run_reports_every_per_layer_metric(qg_runs):
    _, traced = qg_runs
    for last, _ in traced:
        assert last["correct"]
        assert {k: v["unit"] for k, v in last["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_two_traced_runs_give_identical_counts(qg_runs):
    _, traced = qg_runs
    counts = [op["trace"]["counts"] for _, record in traced
              for op in record["ops"] if "trace" in op]
    assert len(counts) >= 2
    assert all(c == counts[0] for c in counts)
    assert counts[0]["dynamics.steps"] == 200
    assert counts[0]["dynamics.stream_solves"] == 600


def test_layer_self_times_add_up_to_the_traced_op(qg_runs):
    _, traced = qg_runs
    for _, record in traced:
        for op in record["ops"]:
            if "trace" in op:
                total = sum(op["trace"]["times"].values())
                assert total == pytest.approx(op["trace"]["op_s"], rel=1e-9)


def test_without_the_program_it_exits_nonzero_and_prints_no_result():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = _bench("qg-vortex", 0, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
