"""Write perfbench/references.json: the outputs of every workload at every
seed choice, computed by the code in this checkout.

    python3 perfbench/make_references.py

Rerun it only when a change is meant to move the checked outputs, and say
so in CHANGES.md; the benchmark then checks later changes against them.
"""

import json
import time

from bootstrap import import_fracrbf
from workloads import REFERENCES, WORKLOADS, param_key, run_op


def main():
    harness = import_fracrbf()
    refs = {}
    for name, workload in WORKLOADS.items():
        refs[name] = {}
        for param in workload.choices:
            t0 = time.perf_counter()
            refs[name][param_key(param)] = run_op(harness, name, param)
            print(f"{name} {param_key(param)}: {time.perf_counter() - t0:.2f} s",
                  flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
