"""Smoke self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny size with its checks on (no op may fail).  Then
it runs the tiny cone batch with one injected wrong answer: each run of that
op, and nothing else, must be counted as failed.  Last, a tiny traced
classify batch: the tracer must see every CLI call and put every original
name back.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import OUT_DIR, REPEATS, Runner  # noqa: E402


def _one_batch(ops, tracer=None) -> Runner:
    runner = Runner(workloads.fresh_state)
    runner.run_batches(ops, budget=0.0, tracer=tracer)
    return runner


def main() -> int:
    problems = []
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR)
    try:
        for name in WORKLOADS:
            runner = _one_batch(workloads.build(name, 7, workdir, tiny=True))
            print(f"{name}: {runner.attempted} ops, {runner.failed} failed")
            if runner.failed:
                problems.append(f"{name}: {runner.failures}")

        ops = workloads.build("cone", 7, workdir, tiny=True)
        honest = ops[0].run
        ops[0].run = lambda: not honest()
        runner = _one_batch(ops)
        print(f"cone with one wrong answer: failed_frac {runner.failed}/{runner.attempted}")
        if runner.failed != REPEATS:  # every run of the short op fails
            problems.append(f"injected wrong answer counted {runner.failed} times")

        import superkit.cli
        main_fn = superkit.cli.main
        ops = workloads.build("classify", 7, workdir, tiny=True)
        tracer = Tracer()
        tracer.install()
        try:
            _one_batch(ops, tracer)
        finally:
            tracer.uninstall()
        calls = tracer.layer_totals().get("cli.main.calls", 0)
        print(f"traced classify: {calls} cli.main calls for {len(ops)} ops")
        if calls != len(ops) or superkit.cli.main is not main_fn:
            problems.append("tracer missed CLI calls or did not restore cli.main")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
