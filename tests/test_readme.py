"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    ps, sm, lam, u = scope["ps"], scope["sm"], scope["lam"], scope["u"]
    assert sm.basis is scope["basis"]
    assert lam.shape == (ps.n_total,) and u.shape == (ps.n_interior,)
    assert np.all(np.isfinite(u)) and np.all(u > 0.0)
