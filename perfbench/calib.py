"""Machine-speed calibration.

The shared 2-CPU machines this benchmark runs on change speed by up to 2x
for stretches of a fraction of a second to minutes (the same work in one
process took 160 ms in one stretch and 310 ms in the next, with no steal
time reported).  Raw wall times of identical work therefore spread by
10-25% between runs.  The benchmark runs a short fixed kernel between
timed pieces of work and reports each piece's time rescaled to the speed
at which the kernel takes its nominal time:

    reported = raw * nominal / median(kernel runs nearest the piece)

Two kernels, matched to the work they calibrate:

- `compute_ms` (in-process bytecode, small LAPACK calls and sorting and
  elementwise work on a 250 x 3 array, nominal 1.5 ms) for Monte Carlo
  batches.  It did not follow the speed of starting a process.
- `spawn_ms` (start an interpreter that runs `pass`, nominal 50 ms) for
  set-up and fresh-process CLI invocations, whose wall time it follows
  (correlation 0.78 per invocation).

Neither kernel touches the package under test, so a slower package still
reads slower.  Raw times are reported next to the metrics, in the facts
line.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

COMPUTE_NOMINAL_MS = 1.5
SPAWN_NOMINAL_MS = 50.0
_A4 = np.eye(4) + 0.1
_A100 = 3.0 * np.eye(100) + 0.01
_X = np.random.default_rng(0).standard_normal((250, 3))


def _compute_once():
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    for _ in range(30):
        np.linalg.solve(_A4, np.linalg.cholesky(_A4))
    for _ in range(2):
        np.linalg.cholesky(_A100)
    for _ in range(20):
        np.argsort(_X, axis=0)
        np.unique(_X[:, 0])
        np.log1p(np.abs(_X)).T @ _X
    return 1000.0 * (time.perf_counter() - t0)


def compute_ms():
    """Time of the in-process kernel, in ms: the median of three runs, so
    that a single preemption does not read as a slow machine."""
    return statistics.median(_compute_once() for _ in range(3))


def spawn_ms(env):
    """Wall time, in ms, of starting an interpreter that does nothing."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return 1000.0 * (time.perf_counter() - t0)


class Timeline:
    """Kernel runs interleaved with timed work: call `mark()` before the
    first piece and after each piece; `scaled(i, raw)` rescales piece i by
    the median of the (up to) six kernel runs nearest to it, three on each
    side, which follows changes of speed that last a second or more
    without trusting any single sample."""

    def __init__(self, kernel=compute_ms, nominal_ms=COMPUTE_NOMINAL_MS):
        self.kernel = kernel
        self.nominal_ms = nominal_ms
        self.kernels = []

    def mark(self):
        self.kernels.append(self.kernel())

    def scaled(self, i, raw):
        near = self.kernels[max(0, i - 2):i + 4]
        return raw * self.nominal_ms / statistics.median(near)
