"""fracrbf benchmark: one workload, one process.

    python3 perfbench/run.py --workload qg-vortex --seed 0 --seconds 55 --trace 0

Runs the workload's op (one `harness` preset call) in a closed loop,
starting another only while its predicted end stays inside --seconds (the
first op always runs). The host speed gauge (hostspeed.py) runs before
the first op and after every op; each op time is scaled to the reference
host speed by the mean of the two gauge readings around it. The first op
is a warm-up: it is checked and counted, but op_s is the median scaled
time of the ops after it. Every op's outputs are checked; an op that
raises, returns non-finite values or fails its check counts as failed
and the run goes on.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced ops and prints the per-layer metrics (see README.md). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The full record (environment, every op, and the spans of traced ops) goes
to perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import bootstrap
import hostspeed
import layertrace
import workloads

SETUP_PROBES = 7
OUT_DIR = bootstrap.ROOT / "perfbench" / "out"
BENCHMARK = bootstrap.ROOT / "BENCHMARK.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def setup(args):
    """Imports plus input generation: everything before the first op."""
    harness = bootstrap.import_fracrbf()
    workload = workloads.WORKLOADS[args.workload]
    ref = workloads.load_references()[workload.name][workload.key(args.seed)]
    return harness, workload, workload.param(args.seed), ref


def time_setups(args, count, gauge):
    """Wall time from spawning a fresh interpreter to the end of its set-up,
    for `count` fresh processes run one after another, each with the mean
    gauge reading around it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    before = sum(gauge().values())
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
        after = sum(gauge(t1 - t0).values())
        samples.append({"seconds": t1 - t0, "gauge_s": (before + after) / 2})
        before = after
    return samples


def attempt(call, name, ref):
    """Run one op; time it, then check its outputs outside the timed region.
    A traced call returns (outputs, trace record); the record joins the op."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failing op is counted, never fatal to the run
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return {"seconds": seconds, "ok": False,
                "problems": [f"{type(exc).__name__}: {exc}"]}
    seconds = time.perf_counter() - t0
    op = {"seconds": seconds}
    if isinstance(result, tuple):
        result, op["trace"] = result
    op["problems"] = workloads.check(name, result, ref)
    op["ok"] = not op["problems"]
    op["outputs"] = result
    for problem in op["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    return op


def run_ops(kind_of, run, seconds, min_ops, gauge):
    """Run ops of kind kind_of(i) until another would end past the window,
    reading the gauge before the first op and after each one."""
    ops = []
    start = time.perf_counter()
    before = sum(gauge().values())
    while True:
        kind = kind_of(len(ops))
        op = run(kind)
        op["gauge_parts_s"] = gauge(op["seconds"])
        after = sum(op["gauge_parts_s"].values())
        op["kind"] = kind
        op["gauge_s"] = (before + after) / 2
        before = after
        ops.append(op)
        elapsed = time.perf_counter() - start
        predicted = statistics.median(o["seconds"] for o in ops) + after
        if len(ops) >= min_ops and elapsed + predicted > seconds:
            return ops


def median_scaled(samples):
    """Median time at reference host speed, of the passing ops if any."""
    good = [s for s in samples if s.get("ok", True)] or samples
    return statistics.median(hostspeed.scaled(s["seconds"], s["gauge_s"]) for s in good)


def git_rev():
    """Commit of the checkout, read from .git without running git."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((bootstrap.SRC / "fracrbf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, param):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "param": param,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
        "git_rev": git_rev(), "src_digest": src_digest(),
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        harness, workload, param, ref = setup(args)
    except (bootstrap.MissingProgram, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print("ready", flush=True)
        return 0
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    gauge = hostspeed.Gauge().read
    setups = [] if args.trace else time_setups(args, SETUP_PROBES, gauge)

    name = workload.name
    tracer = layertrace.Tracer()

    def op():
        return workloads.run_op(harness, name, param)

    def traced_op():
        uninstall = layertrace.install(tracer)
        try:
            return tracer.op(op)
        finally:
            uninstall()

    calls = {"untraced": op, "traced": traced_op}
    # With --trace 1 the first op of the process is a traced one, so that
    # geometry's peak-RSS rise is measured before any other op ran.
    kinds = ("traced", "untraced") if args.trace else ("untraced",)
    ops = run_ops(lambda i: kinds[i % len(kinds)],
                  lambda kind: attempt(calls[kind], name, ref),
                  args.seconds, min_ops=len(kinds), gauge=gauge)

    failed = sum(not o["ok"] for o in ops)
    env = environment(args, param)
    if args.trace:
        records = [o["trace"] for o in ops if "trace" in o]
        if not records:
            print("perfbench: every traced op raised; no layer metrics", file=sys.stderr)
            return 1
        metrics = layertrace.layer_metrics(records)
        traced, untraced = ([o for o in ops if o["kind"] == k] for k in kinds)
        metrics["trace.overhead_frac"] = median_scaled(traced) / median_scaled(untraced) - 1.0
    else:
        # The first op pays for first calls (lazy imports, page faults).
        timed = ops[1:] if len(ops) > 1 else ops
        metrics = {"setup_s": median_scaled(setups), "op_s": median_scaled(timed),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    # Report exactly the metrics BENCHMARK.json declares, with its units.
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}

    record = {"env": env, "setup_samples": setups, "ops": ops, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, default=repr) + "\n")

    print(f"perfbench {name} seed={args.seed} param={workloads.param_key(param)} "
          f"trace={args.trace} ops={len(ops)} failed={failed}")
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'gauge_s':32s} {statistics.median(o['gauge_s'] for o in ops):.6g} s "
          f"(reference {hostspeed.REFERENCE_S} s)")
    if not args.trace:
        print(f"  {'op_wall_s':32s} {statistics.median(o['seconds'] for o in timed):.6g} s")
        last = [o for o in ops if o["ok"]]
        if name == "disk-lattice" and last:
            print(f"  {'err_rel':32s} {last[-1]['outputs']['E']:.6g} 1")
        print(f"  {'fail_frac':32s} {failed / len(ops):.6g} 1")
    print(f"  record written to {out_path.relative_to(bootstrap.ROOT)}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
