"""Write reference_seed0.json: the seed-0 theory outputs of the package as it is.

    python3 perfbench/make_reference.py

The benchmark checks every seed-0 run against this file, so regenerate it
only when a change to the theory outputs is intended.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

reference = {}
for name in ("theory-sweep", "mc-sweep"):
    wl = workloads.build(name, 0)
    outputs = wl.run_pass().outputs
    reference[name] = {s.label: workloads.theory_values(outputs[s.label][0]) for s in wl.sweeps}
    reference[name].update({q.label: list(outputs[q.label]) for q in wl.searches})

# one reference row per line
blocks = []
for name, entries in reference.items():
    items = []
    for label, value in entries.items():
        if value and isinstance(value[0], list):
            value = "[\n" + ",\n".join("   " + json.dumps(row) for row in value) + "\n  ]"
        else:
            value = json.dumps(value)
        items.append(f"  {json.dumps(label)}: {value}")
    blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(items) + "\n }")
workloads.REFERENCE_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="ascii")
