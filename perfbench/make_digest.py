"""Rewrite perfbench/digests.json, the reference outputs that run.py compares
each op's canonical output against.

    python3 perfbench/make_digest.py

Runs one batch of every workload at the reference seed and stores the
workload's sha256 over its sorted canonical outputs plus a short hash per op
input.  Regenerate it only when an output change is intended.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_SEED = 1


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(REFERENCE_SEED), "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=os.path.dirname(HERE))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failed"]:
            print(f"{workload}: {result['failures']}", file=sys.stderr)
            return 1
        digests[workload] = {"seed": REFERENCE_SEED, "sha256": result["digest"],
                             "ops": dict(sorted(result["op_digests"].items()))}
        print(f"{workload}: {len(result['op_digests'])} ops, sha256 {result['digest']}")
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
