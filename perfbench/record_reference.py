"""Record perfbench/reference.json: the outputs the correctness gate
compares against, all at the acceptance seed.

Run from the repository root at the commit whose outputs are the
reference (the commit that defined the benchmark recorded it):

    python3 perfbench/record_reference.py

Re-recording is only right when a change to the numbers is intended and
explained; the gate exists to catch the ones that are not.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import workloads as wl  # noqa: E402


def main():
    work_dir = os.path.join(ROOT, ".perfbench", "record")
    try:
        reference = {
            "seed": wl.ACCEPTANCE_SEED,
            "tolerance": {"abs": gate.ABS_TOL, "rel": gate.REL_TOL},
            "src_sha256": gate.src_digest(ROOT),
            "mc": {w: gate.mc_gate_outputs(w) for w in wl.MC_WORKLOADS},
            "cli": gate.cli_reference_outputs(wl.ACCEPTANCE_SEED, work_dir),
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {gate.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
