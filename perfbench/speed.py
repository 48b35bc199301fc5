"""Wall time scaled to a reference CPU speed.

On the shared 2-vCPU machine the benchmark was defined on, the speed of
the CPU drifts by tens of percent from one second to the next, and neither
wall time nor CPU time can tell the slow stretches apart (the process is
not descheduled, it just runs slower).  A fixed calibration kernel (small
numpy SVDs, Python integer arithmetic, polynomial evaluation on a
4096-point circle grid and a pass over a 1 MB array, none of the
program's code) therefore runs between ops at least every ``BLOCK_S``
seconds, and each stretch of wall time between two calibrations is scaled
by ``(KERNEL_REF_S / mean(kernel time before, kernel time after)) **
SENSITIVITY``, each kernel time the median of three runs.  A faster
program reads faster by the same factor; a slower host does not.  The
kernel's own time is left out of every figure.
"""

import statistics
import time

import numpy as np

# Median time of ``kernel()`` on the 2-vCPU machine the benchmark was
# defined on, so that scaled figures read close to that machine's wall time.
KERNEL_REF_S = 2.2e-3
BLOCK_S = 0.25

# The program slows down more than the kernel when the host is slow.  Over
# ten 25 s runs per workload on that machine, log(raw ops/s) against
# log(kernel speed) had slopes 1.49 (scan), 1.21 (whitham) and 1.39
# (probe), with residuals of 1-2 %; scaling by the kernel speed to this
# power cut the ops/s spread of scan from 0.09 to 0.02 and of probe from
# 0.09 to 0.03.
SENSITIVITY = 1.4

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((6, 6))
_P = _RNG.standard_normal(6) + 0j
_Z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 4096))
_BIG = np.exp(2j * np.pi * _RNG.uniform(size=1 << 16))


def kernel():
    """Run the calibration kernel once and return its wall time.

    Small-matrix and interpreter work, vector work on a circle grid and a
    pass over a 1 MB array: the kinds of cost the program's ops mix, so
    that the kernel slows down with the program when neighbours crowd the
    caches, not only when the core is slow."""
    t0 = time.perf_counter()
    x = 0
    for _ in range(20):
        np.linalg.svd(_A)
        x += sum(j * j for j in range(60))
    for _ in range(5):
        v = np.real(_Z * np.polyval(_P[:-1], _Z) / np.polyval(_P, _Z))
        x += int(np.count_nonzero(np.signbit(v[:-1]) != np.signbit(v[1:])))
    x += float(np.abs(_BIG * _BIG.conj() + _BIG).sum())
    return time.perf_counter() - t0


def calibrate(samples=3):
    """Kernel time now: the median of a few runs, so that one run hit by an
    interrupt does not rescale a whole block."""
    return statistics.median(kernel() for _ in range(samples))


def factor():
    """Scale factor for the current moment."""
    return (KERNEL_REF_S / calibrate(5)) ** SENSITIVITY


class ScaledClock:
    """Collects op latencies and scales them block by block."""

    def __init__(self):
        self.latencies = []      # scaled, seconds; inf for failed ops
        self.raw_s = 0.0         # wall time of the closed blocks
        self.scaled_s = 0.0      # the same, scaled
        self._pending = []
        self._before = calibrate()
        self._start = time.perf_counter()

    def add(self, latency):
        self._pending.append(latency)
        if time.perf_counter() - self._start >= BLOCK_S:
            self.close()

    def close(self):
        """End the current block: calibrate and scale what it holds."""
        wall = time.perf_counter() - self._start
        after = calibrate()
        f = (2.0 * KERNEL_REF_S / (self._before + after)) ** SENSITIVITY
        self.latencies.extend(x * f for x in self._pending)
        self.raw_s += wall
        self.scaled_s += wall * f
        self._pending = []
        self._before = after
        self._start = time.perf_counter()
