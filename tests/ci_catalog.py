"""Run the catalog's `ci` entries: each verb with a budget runs as a fresh
`python -m superkit.cli --json VERB --family SPEC` process under its time
budget; its output is printed, and the exit status is 1 if any run times
out or disagrees with the catalog.  pytest does not collect this file.

    PYTHONPATH=src python tests/ci_catalog.py
"""

import os
import subprocess
import sys
from pathlib import Path

from superkit import catalog
from support import outcome_mismatch

SRC = str(Path(__file__).resolve().parents[1] / "src")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    failures = []
    for e in catalog.entries(cost=catalog.CI):
        for verb, seconds in e.budgets:
            run = f"{verb} --family {e.spec}"
            print(f"== {run} (budget {seconds} s)", flush=True)
            argv = [sys.executable, "-m", "superkit.cli", "--json", verb, "--family", e.spec]
            try:
                done = subprocess.run(argv, capture_output=True, text=True, env=env,
                                      timeout=seconds)
            except subprocess.TimeoutExpired:
                problem = f"did not finish within {seconds} s"
            else:
                print(done.stdout + done.stderr, end="", flush=True)
                problem = outcome_mismatch(e, verb, done.returncode, done.stdout)
            if problem:
                print(f"MISMATCH {run}: {problem}", flush=True)
                failures.append(run)
    print(f"{len(failures)} of the catalog's CI runs failed" + (": " + ", ".join(failures)
                                                               if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
