"""CPU-speed sampler: scales measured times to a fixed reference speed.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to a quarter over phases of seconds, far more
than the changes the benchmark has to resolve.  A timer signal every
`PERIOD_S` runs a fixed stdlib workload (`reference_work`: exact rational
elimination on a small matrix, the same kind of arithmetic superkit does) and
records how long it took.  Time between samples, multiplied by the ratio of
`NOMINAL_S` to the reference time nearby (to the power `ALPHA`), is the time
it would have taken at the reference speed; time spent in samples is
dropped.  The reference
workload is frozen with the benchmark and calls nothing in superkit, so a
change to superkit cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
HALF_WINDOW = 5  # samples on each side whose median sets the local speed
NOMINAL_S = 0.0004  # reference_work's duration at the reference speed
# superkit slows less than the reference when the machine slows: the slope
# of log(op time) against log(reference time) measured 0.77 (ghost) to 0.94
# (cone) on a 2-vCPU VM.  Scaling by (NOMINAL_S / reference) ** ALPHA
# instead of the plain ratio keeps slow phases from being over-corrected.
ALPHA = 0.85

_MATRIX = [[Fraction(3 * i + 1, j + 2) - (i == j) * 2 for j in range(4)] for i in range(4)]


def reference_work() -> int:
    """Rank of a fixed 4x4 rational matrix by Gaussian elimination, twice."""
    rank = 0
    for _ in range(2):
        rows = [list(r) for r in _MATRIX]
        rank = 0
        for col in range(4):
            piv = next((r for r in range(rank, 4) if rows[r][col] != 0), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for r in range(4):
                if r != rank and rows[r][col] != 0:
                    f = rows[r][col] / rows[rank][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
    return rank


class Timebase:
    """Maps perf_counter readings to (own, scaled) times: `own` leaves out
    the time spent in samples, `scaled` also runs at the reference speed.
    Only differences of mapped readings mean anything."""

    def __init__(self, starts: list[float], costs: list[float]) -> None:
        n = len(starts)
        self.starts = starts
        self.ends = [s + c for s, c in zip(starts, costs)]
        # the piece of time that ends at sample i runs at rates[i]
        self.rates = [(NOMINAL_S / statistics.median(costs[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1]))
                      ** ALPHA for i in range(n)]
        self.own_at, self.scaled_at = [], []  # mapped values at each sample
        own = scaled = 0.0
        prev_end = starts[0] if n else 0.0
        for i in range(n):
            gap = starts[i] - prev_end
            own += gap
            scaled += gap * self.rates[i]
            self.own_at.append(own)
            self.scaled_at.append(scaled)
            prev_end = self.ends[i]

    def __call__(self, t: float) -> tuple[float, float]:
        if not self.starts:
            return t, t
        i = bisect.bisect_right(self.starts, t)
        if i == 0:
            d = t - self.starts[0]
            return d, d * self.rates[0]
        j = i - 1
        if t <= self.ends[j]:
            return self.own_at[j], self.scaled_at[j]
        d = t - self.ends[j]
        rate = self.rates[min(i, len(self.rates) - 1)]
        return self.own_at[j] + d, self.scaled_at[j] + d * rate

    def interval(self, t0: float, t1: float) -> tuple[float, float]:
        """(own, scaled) duration of [t0, t1]."""
        a, b = self(t0), self(t1)
        return b[0] - a[0], b[1] - a[1]


class SpeedSampler:
    """Samples the reference workload on a timer signal while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.costs: list[float] = []  # its duration
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # The collector stays out of the sample: its cost depends on the
        # size of the measured program's heap, not on the CPU's speed.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.costs.append(t1 - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timebase(self) -> Timebase:
        """A timebase from the samples taken so far."""
        n = len(self.costs)
        return Timebase(self.starts[:n], self.costs[:n])
