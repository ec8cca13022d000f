"""The README's library example runs as written, and its CLI lines parse."""

import re
import shlex
from pathlib import Path

import numpy as np

from fracrbf import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    ps, lam, u = scope["ps"], scope["lam"], scope["u"]
    assert lam.shape == (ps.n_total,) and u.shape == (ps.n_interior,)
    assert np.all(np.isfinite(u)) and np.all(u > 0.0)


def test_readme_cli_lines_parse():
    # every `fracrbf ...` line of the sh blocks is a valid command line, so a
    # renamed flag or subcommand fails here; nothing is run
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [ln for block in blocks for ln in block.splitlines() if ln.startswith("fracrbf ")]
    assert len(lines) >= 7
    parser = cli._build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert parser.parse_args(argv).command == argv[0], line
