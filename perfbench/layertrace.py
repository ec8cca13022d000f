"""Outside-in layer trace of fracrbf.

Span wrappers go around every function and public method named in each
layer module's `__all__`, plus `linsys._factor`, the one place an LU
happens. Every module-level name bound to a wrapped function is rebound,
including the re-imports (`harness.assemble`, `linsys.phi_block`, ...) and
the `harness.PRESETS` table, so calls between layers nest as spans and a
span's self time excludes exactly the time of the spans it caused.

Spans stay in memory and are written out by the caller when the run ends.
"""

import functools
import importlib
import inspect
import resource
import statistics
import time
from collections import Counter

LAYERS = ("geometry", "rbf", "exterior", "oracles", "linsys", "steady",
          "dynamics", "harness")
EXTRA = {"linsys": ("_factor",)}

# Span name -> time metric that receives its self time. "<layer>.*" covers
# a whole layer; a span matching no entry goes to trace.other_s, as does
# the self time of the op span itself.
BUCKETS = {
    "geometry.*": "geometry.point_set_s",
    "rbf.phi_block": "rbf.phi_block_s",
    "rbf.psi_block": "rbf.psi_block_s",
    "rbf.grad_blocks": "rbf.grad_blocks_s",
    "exterior.tail_factors_at": "exterior.tail_factors_s",
    "exterior.build_tail_factors": "exterior.tail_factors_s",
    "exterior.TailFactors.assemble": "exterior.tail_matmul_s",
    "linsys.assemble": "linsys.assemble_self_s",
    "linsys._factor": "linsys.lu_s",
    "linsys.SystemMatrices.s_lu": "linsys.lu_s",
    "linsys.SystemMatrices.phi_lu": "linsys.lu_s",
    "linsys.SystemMatrices.solve": "linsys.solve_s",
    "linsys.lu_solve": "linsys.solve_s",
    "linsys.nodal_values": "linsys.solve_s",
    "linsys.condition_estimate": "linsys.cond_s",
    "linsys.nodal_operator": "linsys.nodal_operator_s",
    "steady.evaluate_interpolant": "steady.evaluate_s",
    "steady.forward_frac_lap": "steady.evaluate_s",
    "steady.forward_frac_lap_clipped": "steady.evaluate_s",
    "steady.test_points_disk": "steady.evaluate_s",
    "steady.solve_poisson": "steady.solve_poisson_self_s",
    "dynamics.qg_operators": "dynamics.qg_operators_s",
    "dynamics.run_qg": "dynamics.step_s",
    "dynamics.ssp_rk3_step": "dynamics.step_s",
    "dynamics.qg_rhs": "dynamics.step_s",
    "dynamics.QgOperators.stream": "dynamics.stream_s",
    "oracles.case2": "oracles.case2_s",
    "harness.*": "harness.preset_self_s",
}
OTHER = "trace.other_s"
TIME_METRICS = tuple(dict.fromkeys(BUCKETS.values())) + (OTHER,)


def _tail_nodes(args, tail):
    return {"exterior.tail_nodes": tail.weights.size * (1 if tail.b_alt is None else 2)}


def _tail_flops(args, mat):
    tail = args[0]
    pairs = [(tail.b, tail.c)] + ([] if tail.b_alt is None else [(tail.b_alt, tail.c_alt)])
    return {"exterior.tail_flops": sum(2 * b.shape[0] * b.shape[1] * c.shape[1]
                                       for b, c in pairs)}


def _lu(args, factors):
    n = args[0].shape[0]
    return {"linsys.lu_count": 1, "linsys.lu_flops": 2 * n ** 3 // 3}


# Span name -> counts it adds, computed from its arguments and result.
COUNTERS = {
    "rbf.phi_block": lambda a, r: {"rbf.kernel_entries": r.size},
    "rbf.psi_block": lambda a, r: {"rbf.kernel_entries": r.size},
    "rbf.classical_lap_block": lambda a, r: {"rbf.kernel_entries": r.size},
    "rbf.grad_blocks": lambda a, r: {"rbf.kernel_entries": sum(b.size for b in r)},
    "exterior.tail_factors_at": _tail_nodes,
    "exterior.TailFactors.assemble": _tail_flops,
    "linsys._factor": _lu,
    "dynamics.ssp_rk3_step": lambda a, r: {"dynamics.steps": 1},
    "dynamics.QgOperators.stream": lambda a, r: {"dynamics.stream_solves": 1},
}
COUNT_METRICS = ("rbf.kernel_entries", "exterior.tail_nodes", "exterior.tail_flops",
                 "linsys.lu_count", "linsys.lu_flops", "dynamics.steps",
                 "dynamics.stream_solves")


def bucket(name):
    return BUCKETS.get(name) or BUCKETS.get(name.split(".")[0] + ".*", OTHER)


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans (id, parent id, name, start, end, self seconds) and
    counts for one op at a time; `op` returns that op's record."""

    def __init__(self):
        self._stack = []
        self._spans = []
        self._counts = Counter()
        self._rss_delta_mb = 0.0
        self._next_id = 0

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        geometry = name.startswith("geometry.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = geometry and not (self._stack and self._stack[-1][1].startswith("geometry."))
            rss0 = _maxrss_mb() if outer else 0.0
            result = self._call(name, fn, args, kwargs)
            if outer:
                self._rss_delta_mb += _maxrss_mb() - rss0
            if count is not None:
                self._counts.update(count(args, result))
            return result

        return traced

    def _call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            if self._stack:
                self._stack[-1][3] += duration
            self._spans.append((span_id, parent, name, frame[2], end, duration - frame[3]))

    def op(self, fn):
        """Run fn() as the root span of one op; return (result, record)."""
        if self._stack:
            raise RuntimeError("an op is already running")
        self._spans, self._counts, self._rss_delta_mb = [], Counter(), 0.0
        try:
            result = self._call("op", fn, (), {})
        finally:
            record = self._record()
        return result, record

    def _record(self):
        times = dict.fromkeys(TIME_METRICS, 0.0)
        for span in self._spans:
            times[bucket(span[2])] += span[5]
        root = self._spans[-1]
        return {
            "op_s": root[4] - root[3],
            "times": times,
            "counts": {k: self._counts.get(k, 0) for k in COUNT_METRICS},
            "rss_peak_delta_mb": self._rss_delta_mb,
            "spans": self._spans,
        }


def install(tracer):
    """Wrap the layer functions in place; return a function that undoes it."""
    wrapped = {}
    undo = []

    def set_attr(owner, key, value):
        undo.append(functools.partial(setattr, owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def set_item(table, key, value):
        undo.append(functools.partial(table.__setitem__, key, table[key]))
        table[key] = value

    modules = {layer: importlib.import_module(f"fracrbf.{layer}") for layer in LAYERS}
    for layer, mod in modules.items():
        for name in tuple(mod.__all__) + EXTRA.get(layer, ()):
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        set_attr(obj, attr, tracer.wrap(f"{layer}.{name}.{attr}", member))
    package = importlib.import_module("fracrbf")
    for mod in (package, *modules.values()):
        for key, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                set_attr(mod, key, wrapped[value])
            elif isinstance(value, dict) and key.isupper():  # tables such as PRESETS
                for k, v in list(value.items()):
                    if inspect.isfunction(v) and v in wrapped:
                        set_item(value, k, wrapped[v])

    def uninstall():
        for restore in reversed(undo):
            restore()

    return uninstall


def layer_metrics(records):
    """Per-layer metrics of a traced run: median self time per op of each
    bucket, counts per op (identical across ops of one workload), and the
    geometry peak-RSS rise of the run's first op."""
    out = {name: statistics.median(r["times"][name] for r in records)
           for name in TIME_METRICS}
    out.update({name: statistics.median(r["counts"][name] for r in records)
                for name in COUNT_METRICS})
    out["geometry.rss_peak_delta_mb"] = records[0]["rss_peak_delta_mb"]
    out["trace.op_s"] = statistics.median(r["op_s"] for r in records)
    return out
