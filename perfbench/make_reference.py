"""Write the reference final fields the correctness gate compares against.

Runs every workload at the default seed, for its full step count and for
the smoke step count, and stores the final fields under ``reference/``.
Run it from the repository root only when a change to the program is meant
to change the solutions:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

import gate
import workloads


def main():
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        finals = {}
        for smoke in (False, True):
            case = workloads.build(name, workloads.DEFAULT_SEED, smoke)
            case.prepare()
            result = case.run()
            finals[str(case.steps)] = [
                float(v) for v in case.final_field(result)]
            case.cleanup()
        with open(gate.reference_path(name), "w") as fh:
            json.dump({"workload": name, "seed": workloads.DEFAULT_SEED,
                       "final": finals}, fh, indent=0)
            fh.write("\n")
        print(f"{name}: steps {sorted(finals, key=int)}", file=sys.stderr)


if __name__ == "__main__":
    main()
