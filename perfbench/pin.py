"""Recompute pins.json: the output digest of every pool entry.

Run from the repository root when the program's outputs change on purpose:

    python3 perfbench/pin.py [WORKLOAD ...]   # default: every workload

The benchmark compares each operation's output against these pins; a
changed pin must be explained where the output change is.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import credmarket  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(names):
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    pins = {name: pins[name] for name in WORKLOADS if name in pins}
    for name in names or WORKLOADS:
        pins[name] = WORKLOADS[name].pin_values(credmarket)
        print(f"pinned {name}", flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
