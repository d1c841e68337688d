"""Time the set-up a fresh ``pwamalgam`` CLI process pays before computing.

Usage: python3 setup_probe.py <src-dir> <config.json>

Imports the CLI module (which loads numpy and scipy), parses the config and
builds its signal, family, nodes and grids, then prints the seconds taken.
Nothing is imported before the clock starts but ``sys`` and ``time``.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pwamalgam.cli  # noqa: E402,F401
from pwamalgam.config import load_config  # noqa: E402

config = load_config(sys.argv[2])
config.make_signal()
config.make_family()
config.make_nodes()
config.make_grid()
config.make_spatial_grid()
print(time.perf_counter() - start)
