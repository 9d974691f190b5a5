"""Machine-speed sampling, so that times can be given at one reference speed.

The benchmark runs on shared hosts, where the same code can run 1.7 times
slower in one ten-second spell than in the next, on every core and in
every process alike. A `SpeedSampler` measures that speed while the
operations run: a real-time interval timer interrupts the program every
`INTERVAL_S` seconds and times a calibration task, a fixed piece of work
that uses no menurev code. A task that takes twice its reference time
means that the machine runs at half the reference speed just then.

Interpreted Python and vectorised numpy code do not slow down alike on
such a host: when a pure-Python loop takes twice as long, an int64 numpy
kernel takes about 1.4 times as long. So there are two tasks, and each
workload names the one that is like the code it spends its time in:

- `python_task`: Fraction and integer arithmetic and dict updates;
- `numpy_task`: broadcast int64 arithmetic, a row maximum and a matrix
  product, the shape of the search kernel's menu evaluation.

`scaled(a, b)` turns the interval [a, b] of `time.perf_counter()` into
seconds at the reference speed: the interval's length, less the time the
sampler itself spent in it, times the mean of `reference / task time`
over the samples that cover it, each weighted by the time since the
sample before it. A program that does more work still takes longer; a
machine that is slower for everyone does not.
"""
from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from functools import lru_cache

INTERVAL_S = 0.05
MIN_SAMPLES = 5  # an interval with fewer samples borrows its nearest neighbours'


def python_task() -> Fraction:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 250):
        acc += Fraction(i % 7, i % 13 + 1)
        table[i % 17] = table.get(i % 17, 0) + i * i
    return acc


@lru_cache(maxsize=None)
def _numpy_inputs():
    import numpy as np
    rng = np.random.default_rng(0)
    return (np, rng.integers(0, 1000, (125, 8)), rng.integers(0, 1000, (100, 8)),
            rng.integers(1, 100, 125))


def numpy_task():
    np, values, rows, weights = _numpy_inputs()
    util = values[None, :, :] - rows[:, None, :]
    util *= 7
    util += rows[:, None, :]
    key = util.max(axis=2)
    np.maximum(key, 0, out=key)
    return np.mod(key, 7) @ weights


# each task with its time on a 2-core x86_64 VM with Python 3.11 and numpy
# 2.4 at a typical speed; it fixes the unit of the scaled times and nothing else
TASKS = {"python": (python_task, 0.001), "numpy": (numpy_task, 0.0015)}


class SpeedSampler:
    """Times the calibration task `kind` (a key of `TASKS`) on a SIGALRM
    timer while it is started."""

    def __init__(self, kind: str = "python") -> None:
        self.task, self.reference = TASKS[kind]
        self.task()  # builds its inputs outside any sample
        self.starts: list = []  # perf_counter at the start of each sample
        self.seconds: list = []  # the task's time in each sample
        self.weights: list = []  # time since the sample before
        self.spent_until: list = []  # sampler time spent up to the end of each sample
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.task()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.seconds.append(t1 - t0)
        self.weights.append(t0 - self._previous if self._previous is not None else INTERVAL_S)
        spent = self.spent_until[-1] if self.spent_until else 0.0
        self.spent_until.append(spent + time.perf_counter() - t0)
        self._previous = t1

    def start(self) -> None:
        """Take a sample now and one every `INTERVAL_S` seconds until `stop`."""
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and take a last sample, so that even an interval
        shorter than `INTERVAL_S` has samples on both sides."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)
        self._previous = None

    def _spent_before(self, t: float) -> float:
        k = bisect.bisect_left(self.starts, t)
        return self.spent_until[k - 1] if k else 0.0

    def speed(self, a: float, b: float) -> float:
        """The machine's speed over [a, b] as a share of the reference speed."""
        if not self.starts:
            raise RuntimeError("the sampler was never started")
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        while hi - lo < min(MIN_SAMPLES, len(self.starts)):
            # widen toward the nearer neighbour, within the samples taken
            before = self.starts[lo - 1] if lo > 0 else None
            after = self.starts[hi] if hi < len(self.starts) else None
            if after is None or (before is not None and a - before <= after - b):
                lo -= 1
            else:
                hi += 1
        weights = self.weights[lo:hi]
        ratios = [self.reference / s for s in self.seconds[lo:hi]]
        return sum(w * r for w, r in zip(weights, ratios)) / sum(weights)

    def scaled(self, a: float, b: float) -> float:
        """Seconds at the reference speed spent by the program over [a, b]."""
        own = self._spent_before(b) - self._spent_before(a)
        return (b - a - own) * self.speed(a, b)
