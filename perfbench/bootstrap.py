"""Import fracrbf from the checkout this benchmark sits in, never from an
installed copy, with one BLAS thread unless OPENBLAS_NUM_THREADS is set."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One thread, so an op runs on one core and never waits at a BLAS barrier
# for a second core that a shared host may be lending to someone else.
BLAS_THREADS = "1"


class MissingProgram(RuntimeError):
    """The checkout holds no fracrbf sources to benchmark."""


def import_fracrbf():
    """Return fracrbf.harness loaded from <checkout>/src."""
    if not (SRC / "fracrbf" / "__init__.py").is_file():
        raise MissingProgram(f"no fracrbf package under {SRC}")
    # Read by OpenBLAS when numpy first loads it, so set before that import.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import fracrbf.harness as harness

    if Path(harness.__file__).resolve().parent != SRC / "fracrbf":
        raise MissingProgram(f"fracrbf imported from {harness.__file__}, not {SRC}")
    return harness
