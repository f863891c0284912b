"""Set-up probe: a fresh interpreter imports the package, builds one
workload's inputs through the public CLI parser, and prints `ready`.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lasso_mismatch  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
