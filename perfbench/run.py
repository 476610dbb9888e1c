"""superkit benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload cone --seed 1 --seconds 20 --trace 0

Workloads: cone, ghost, classify, modules (see perfbench/README.md).  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
repeat every metric with its unit, the failure fraction, the output-digest
check and the per-op breakdown.  Exits non-zero, printing no result, when
the workload cannot run or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cone", "ghost", "classify", "modules")
SETUP_RUNS = 5  # fresh processes timed to READY; setup_s is their median
DEADLINE_S = 170.0  # every process of one invocation ends before this

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p99_ms", "ms"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


def _spawn(args, deadline: float, setup_only: bool) -> tuple[list[float], dict | None]:
    """Run one worker process; return its set-up time [unscaled, scaled]
    and its result (None for a set-up-only run)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    buf = b""
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise WorkerFailed("worker exceeded the time limit")
            readable, _, _ = select.select([proc.stdout], [], [], left)
            if not readable:
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            buf += chunk
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = buf.decode().strip().splitlines()
    if rc != 0 or not lines or not lines[0].startswith("READY "):
        raise WorkerFailed(f"worker exited with code {rc}")
    setup = json.loads(lines[0][len("READY "):])
    return setup, (None if setup_only else json.loads(lines[-1]))


def _digest_report(workload: str, seed: int, result: dict) -> str:
    path = os.path.join(HERE, "digests.json")
    if not os.path.isfile(path):
        return "digest: no reference file"
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)[workload]
    ops = result["op_digests"]
    compared = [k for k in ops if k in ref["ops"]]
    differ = sum(1 for k in compared if ops[k] != ref["ops"][k])
    line = (f"digest: {differ} of {len(compared)} compared op outputs differ from "
            f"the reference ({len(ops) - len(compared)} inputs not in it)")
    if seed == ref["seed"]:
        same = result["digest"] == ref["sha256"]
        line += f"; workload sha256 {'matches' if same else 'DIFFERS'}"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "superkit", "__init__.py")):
        print("no superkit sources under src/ in this checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(_spawn(args, deadline, setup_only=True)[0])
        ready, result = _spawn(args, deadline, setup_only=False)
    except (WorkerFailed, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)
    setup_s = statistics.median(s[1] for s in setups)

    attempted, failed = result["attempted"], result["failed"]
    for msg in result["failures"]:
        print(f"failure: {msg}")
    print(f"failed_frac: {failed / attempted} ratio ({failed} of {attempted} ops)")
    print(_digest_report(args.workload, args.seed, result))
    for row in result["breakdown"]:
        print("op " + json.dumps(row))
    if args.trace:
        print(f"trace: {result['trace_file']}")
        metrics = {name: {"value": result["layers"].get(name, 0), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(result["walls"]),
            "op_p50_ms": result["op_p50_ms"],
            "op_p99_ms": result["op_p99_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"batches: {len(result['walls'])}; unscaled batch walls (s): "
              f"{result['raw_walls']}; unscaled set-up times (s): {[s[0] for s in setups]}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
