"""One workload in its own process: set up, print READY, run the fixed batch
as a closed loop (one client, one op at a time) for the given seconds, check
every answer outside the timed region, and print one JSON result line.

    python3 perfbench/worker.py --workload cone --seed 1 --seconds 20 --trace 0

`--setup-only` stops after READY; run.py uses it to time set-up in several
fresh processes.  With `--trace 1` the run is split: untraced batches first,
then a traced set-up and traced batches, whose layer totals are reported per
batch.  Reported times are scaled to the reference CPU speed of `speed.py`;
the unscaled ones are reported beside them.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

REPEATS = 3
REPEAT_BELOW_S = 1.0

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Runs batches of ops and keeps the per-op outcome bookkeeping."""

    def __init__(self, fresh_state) -> None:
        self.fresh_state = fresh_state
        self.reference: dict[str, str] = {}  # key -> canonical output of its first run
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _record(self, op, res, err) -> None:
        self.attempted += 1
        if err is None:
            out = op.canon(res)
            known = self.reference.get(op.key)
            if known is None:
                try:
                    err = op.check(res)
                except Exception as exc:  # malformed output fails its check
                    err = f"check raised {type(exc).__name__}: {exc}"
                self.reference[op.key] = out if err is None else f"failed: {err}"
            elif known != out:
                err = "output differs from the first run of this input"
        if err is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{op.key}: {err}")

    def run_batches(self, ops, budget: float, tracer=None) -> list[list[tuple]]:
        """Whole batches until the next one would end after `budget` seconds
        (at least one).  Returns per batch the (label, intervals) of each op;
        checks and cache resets fall outside those intervals.  Untraced, an
        op whose first run is shorter than REPEAT_BELOW_S runs REPEATS times
        back to back, so that short ops are not timed from a single run."""
        batches: list[list[tuple]] = []
        clock = time.perf_counter
        start = clock()
        repeats = 1 if tracer is not None else REPEATS
        while True:
            # Every op starts with no garbage from earlier ops, whatever order
            # the seed gave them; set-up objects are frozen out of collection.
            gc.collect()
            gc.freeze()
            spans = []
            for idx, op in enumerate(ops):
                intervals = []
                for _ in range(repeats):
                    self.fresh_state()
                    gc.collect()
                    err = res = None
                    if tracer is not None:
                        tracer.op = f"{len(batches)}:{idx}"
                        scope = tracer.span("bench.op")
                    else:
                        scope = contextlib.nullcontext()
                    t0 = clock()
                    try:
                        with scope:
                            res = op.run()
                    except Exception as exc:  # an op that raises is a failed op
                        err = f"raised {type(exc).__name__}: {exc}"
                    intervals.append((t0, clock()))
                    self._record(op, res, err)
                    del res
                    if intervals[0][1] - intervals[0][0] >= REPEAT_BELOW_S:
                        break
                spans.append((op.label, intervals))
            batches.append(spans)
            wall = sum(t1 - t0 for _, iv in spans for t0, t1 in iv)
            if clock() - start + wall > budget:
                return batches

    def digest(self) -> tuple[str, dict[str, str]]:
        """sha256 over the sorted canonical outputs, and per-op short hashes."""
        lines = sorted(f"{k}\t{v}" for k, v in self.reference.items())
        whole = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return whole, {_short_hash(k): _short_hash(v) for k, v in self.reference.items()}


def _timings(timebase, batches) -> dict:
    """Per batch: wall (the sum of its op latencies), median and p99 op
    latency, all scaled to the reference speed, and the unscaled wall; per
    op label: its scaled latencies.  An op's latency is the median over its
    repeats.  Percentiles are taken within a batch, so they do not depend on
    how many batches fit in the run."""
    out = {"walls": [], "raw_walls": [], "p50_ms": [], "p99_ms": [], "latency": {}}
    for spans in batches:
        times = []
        raw = 0.0
        for label, intervals in spans:
            own, scaled = (statistics.median(x) for x in
                           zip(*(timebase.interval(t0, t1) for t0, t1 in intervals)))
            raw += own
            times.append(scaled)
            out["latency"].setdefault(label, []).append(scaled)
        out["walls"].append(sum(times))
        out["raw_walls"].append(raw)
        out["p50_ms"].append(statistics.median(times) * 1e3)
        # nearest rank: an op latency that occurred, not an interpolation
        out["p99_ms"].append(sorted(times)[math.ceil(0.99 * len(times)) - 1] * 1e3)
    return out


def _per_batch(tracer, n_batches: int) -> dict[str, float]:
    """Layer totals of the traced set-up plus one traced batch (the mean of
    the batches; counts repeat exactly from batch to batch)."""
    setup = tracer.layer_totals({"setup"})
    total = tracer.layer_totals()
    out = {}
    for key, value in total.items():
        if key.endswith(("_max", "max_cols", "member_ratio")):
            out[key] = value
        else:
            base = setup.get(key, 0)
            out[key] = base + (value - base) / n_batches
        if isinstance(out[key], float) and out[key].is_integer() and not key.endswith("_s"):
            out[key] = int(out[key])
    return out


def _op_breakdown(ops, latency, tracer=None) -> list[dict]:
    """Median untraced latency per op label; in a traced run also the layer
    counts of the first traced batch that name the ROADMAP baseline entries."""
    rows = [{"op": label, "runs": len(times), "median_ms": statistics.median(times) * 1e3}
            for label, times in latency.items()]
    if tracer is not None:
        counted = {"core.LieSuperalgebra.direct_sum_decompose": "direct_sum_decompose",
                   "core.LieSuperalgebra.ideal_closure": "ideal_closure",
                   "enveloping.invariants": "invariants"}
        stats = tracer.op_stats(counted)
        by_label: dict[str, list[str]] = {}
        for idx, op in enumerate(ops):
            by_label.setdefault(op.label, []).append(f"0:{idx}")
        for row in rows:
            ids = by_label.get(row["op"], [])
            if len(ids) != 1:
                continue
            for name, short in counted.items():
                calls, total = stats.get((ids[0], name), (0, 0.0))
                if calls:
                    row[f"{short}_calls"] = calls
                    if short == "invariants":
                        row["invariants_s"] = total
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from speed import SpeedSampler
    with SpeedSampler() as sampler:
        return _run(args, sampler)


def _run(args, sampler) -> int:
    import superkit
    if not os.path.abspath(superkit.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"superkit imported from {superkit.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        # READY carries the set-up time, unscaled and scaled
        setup = sampler.timebase().interval(T_START, time.perf_counter())
        print(f"READY {json.dumps(setup)}", flush=True)
        if args.setup_only:
            return 0
        runner = Runner(workloads.fresh_state)
        budget = args.seconds / 2 if args.trace else args.seconds
        batches = runner.run_batches(ops, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed = _timings(sampler.timebase(), batches)
        result = {
            "walls": timed["walls"], "raw_walls": timed["raw_walls"],
            "peak_rss_mb": peak_rss_mb,
            "op_p50_ms": statistics.median(timed["p50_ms"]),
            "op_p99_ms": statistics.median(timed["p99_ms"]),
        }
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced_ops = workloads.build(args.workload, args.seed, workdir)
                traced_batches = runner.run_batches(traced_ops, budget, tracer)
            finally:
                tracer.uninstall()
            timebase = sampler.timebase()
            traced = _timings(timebase, traced_batches)
            tracer.rescale(lambda t: timebase(t)[1])
            layers = _per_batch(tracer, len(traced["walls"]))
            layers["trace.overhead_frac"] = (statistics.median(traced["walls"])
                                             / statistics.median(timed["walls"]) - 1)
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
            tracer.write(trace_path)
            result.update(layers=layers, traced_walls=traced["walls"],
                          trace_file=os.path.relpath(trace_path, ROOT),
                          breakdown=_op_breakdown(traced_ops, timed["latency"], tracer))
        else:
            result["breakdown"] = _op_breakdown(ops, timed["latency"])
        result.update(attempted=runner.attempted, failed=runner.failed,
                      failures=runner.failures)
        result["digest"], result["op_digests"] = runner.digest()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
