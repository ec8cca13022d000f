"""Host speed gauge: a fixed mix of work, independent of fracrbf, timed
next to every op so that op times can be scaled to one reference speed.

On a small shared VM the speed of a core drifts by 25 to 50% over a
minute or so, with the load that neighbours put on caches, memory and
sibling threads, and every op time moves with it. The gauge does the
kinds of work the ops do, on fixed inputs: KD-tree queries, LU
back-solves and matvecs, a dense LU and matmul, elementwise numpy and an
interpreted loop. A change to fracrbf never moves it; a slow host moves
it about as much as it moves an op.
"""

import statistics
import time

import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree

# What one pass of the gauge took on the host this benchmark was tuned on
# (2-core Xeon VM at 2.0 GHz, one OpenBLAS thread). A scaled time is the
# time an op would take on a host whose gauge reads exactly this.
REFERENCE_S = 0.3
# A reading after an op lasts at least this share of the op's time, so
# that a long op is compared with a longer sample of the host's speed.
SHARE = 0.06


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.sites = rng.uniform(-1.0, 1.0, (825, 2))
        self.axis = np.linspace(-1.0, 1.0, 401)
        self.a = rng.standard_normal((825, 825))
        self.a_lu = scipy.linalg.lu_factor(self.a)
        self.b = rng.standard_normal(825)
        self.g = rng.standard_normal((600, 600))
        self.e = rng.uniform(0.0, 1.0, 200_000)

    def read(self, covering=0.0):
        """Mean wall seconds of each part over as many passes as it takes
        to fill SHARE x `covering` seconds, and at least one pass."""
        passes = [self.measure()]
        while sum(sum(p.values()) for p in passes) < SHARE * covering:
            passes.append(self.measure())
        return {k: statistics.fmean(p[k] for p in passes) for k in passes[0]}

    def measure(self):
        """Wall seconds of each part of one pass."""
        parts = {}
        t0 = time.perf_counter()
        # A fresh sample grid clipped to the disk, queried against a tree.
        for _ in range(2):
            xx, yy = np.meshgrid(self.axis, self.axis, indexing="ij")
            grid = np.column_stack([xx.ravel(), yy.ravel()])
            grid = grid[np.sum(grid * grid, axis=1) <= 1.0]
            cKDTree(self.sites).query(grid, k=1)
        t1 = time.perf_counter()
        parts["grid"] = t1 - t0
        for _ in range(75):
            self.a @ scipy.linalg.lu_solve(self.a_lu, self.b)
        t2 = time.perf_counter()
        parts["solve"] = t2 - t1
        scipy.linalg.lu_factor(self.g)
        self.g @ self.g
        t3 = time.perf_counter()
        parts["dense"] = t3 - t2
        for _ in range(5):
            np.exp(-self.e * self.e) * np.sqrt(self.e)
        s = 0
        for i in range(100_000):
            s += i * i
        parts["scalar"] = time.perf_counter() - t3
        return parts


def scaled(seconds, gauge_s):
    """`seconds` measured while the gauge read `gauge_s`, at reference speed."""
    return seconds * REFERENCE_S / gauge_s
