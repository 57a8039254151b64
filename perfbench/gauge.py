"""Machine-speed gauge: times calls in seconds at a fixed reference speed.

The shared virtual machines this benchmark runs on share their cores with
other work, and their speed drifts by up to a factor of two over minutes,
in both directions (see DESIGN.md, "Times").  Raw medians therefore
cannot be steady from one run to the next.  The gauge times a fixed
reference kernel between timed calls (at most every EVERY_S, and always
after a long call) and scales each call's wall time by
REF_S / (the median kernel time over the last WINDOW_S).  One kernel time
alone is too noisy to scale a call by; the median over a short stretch
follows the drift without adding that noise.

The kernel runs in a small process of its own, started from this file,
so nothing the program under test does to its own heap, allocator or
garbage collector can move it.  It uses only the standard library (dict
and tuple churn, a sort, exact rational elimination), so no change to
the package can move it either: a program that gets faster still reads
faster.  The caller waits while the kernel runs, and run.py pins both to
one CPU, so the kernel reads the speed of the core the timed work runs on
and never competes with it.

    python3 perfbench/gauge.py    # the kernel process: one kernel time per input line
"""
from __future__ import annotations

import gc
import os
import random
import statistics
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction

REF_S = 0.012  # the kernel's time at the reference speed (its median on a shared 2 GHz vCPU)
EVERY_S = 0.1  # sample the kernel when the last sample is this old
WINDOW_S = 2.0  # the scale is the median over the samples of this last stretch
MIN_SAMPLES = 3  # and over at least this many
WARM_UP = 3  # kernel runs discarded when the kernel process starts


def reference_kernel() -> int:
    """About REF_S of standard-library work."""
    rng = random.Random(1)
    table = {}
    for i in range(10000):
        table[(i, rng.randrange(1000))] = (i * 7919) % 104729
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)] for _ in range(6)]
    for c in range(6):
        p = next((r for r in range(c, 6) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, 6):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return len(ordered)


def serve() -> None:
    """The kernel process: for each line read, run the kernel and write
    its time in seconds; stop at end of input."""
    gc.disable()  # the kernel makes no cycles
    for _ in sys.stdin:
        t = time.perf_counter()
        reference_kernel()
        print(repr(time.perf_counter() - t), flush=True)


class Gauge:
    """A context manager; leaving it stops the kernel process."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list = []  # every kernel time taken
        self._recent: deque = deque()  # (end time, kernel time) within the window
        try:
            for _ in range(WARM_UP):
                self._kernel()
            for _ in range(MIN_SAMPLES):
                self.sample()
        except BaseException:
            self.close()
            raise

    def _kernel(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def sample(self) -> None:
        k = self._kernel()
        end = time.perf_counter()
        self.samples.append(k)
        self._recent.append((end, k))
        while len(self._recent) > MIN_SAMPLES and self._recent[0][0] < end - WINDOW_S:
            self._recent.popleft()

    def tick(self) -> None:
        if time.perf_counter() - self._recent[-1][0] >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor from measured seconds now to reference seconds."""
        return REF_S / statistics.median(k for _, k in self._recent)

    def timed(self, fn, *args):
        """(fn(*args), its time in reference seconds).  The kernel is
        sampled before the call and again after it when the call was
        longer than EVERY_S, so the window brackets long calls."""
        self.tick()
        t = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t
        self.tick()
        return out, dt * self.scale()

    def run_scale(self) -> float:
        """Factor from measured to reference seconds over the whole run."""
        return REF_S / statistics.median(self.samples)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
