"""Machine-speed reference sampled while a repeat runs.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds and between minutes (co-tenants contend for the same cores
and caches).  To measure the program rather than the host, a wall-clock
timer interrupts the repeat every PERIOD_S and times one of two fixed
micro-kernels in turn: interpreter work (random draws, list indexing,
float math) and small-array numpy work (3x3 outer products and arctan),
the two kinds of work imitodyn's hot loops do.  The sum of the two kernels'
mean times over an interval is that interval's speed reference; a time t
measured over it is reported as ``t * REFERENCE_S / reference`` ("reference
seconds"), i.e. scaled to a host on which the kernel pair takes REFERENCE_S.
Kernel time is subtracted from every measured interval.

The kernels use no state of the program and their own random stream, so
they cannot change its output; the benchmark's byte-reproducibility check
would show it if they did.
"""

from __future__ import annotations

import math
import random
import signal
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 1.4e-3  # kernel pair time on the 2-vCPU reference host at a quiet moment

_X = np.array([0.2, 0.3, 0.5])
_A = np.linspace(0.5, 1.5, 9).reshape(3, 3)
_LIST = list(range(100))


def _interpreter_kernel(rng: random.Random) -> float:
    acc = 0.0
    rr, ys = rng.random, _LIST
    for _ in range(1500):
        u = rr()
        acc -= math.log(1.0 - u) * ys[int(u * 100)]
    return acc


def _numpy_kernel(rng: random.Random) -> float:
    acc = 0.0
    for _ in range(60):
        F = 0.5 + np.arctan(_A * (_X[None, :] - _X[:, None])) / np.pi
        acc += float((np.outer(_X, _X) * F).sum())
    return acc


KERNELS = (_interpreter_kernel, _numpy_kernel)


class SpeedSampler:
    """Samples the kernels on SIGALRM; use mark() and reference(since)
    around an interval, and subtract spent_s over it."""

    def __init__(self) -> None:
        self.samples: tuple[list[float], ...] = tuple([] for _ in KERNELS)
        self.spent_s = 0.0
        self._rng = random.Random(0)
        self._ticks = 0

    def _tick(self, signum, frame) -> None:
        which = self._ticks % len(KERNELS)
        self._ticks += 1
        t0 = time.perf_counter()
        KERNELS[which](self._rng)
        dt = time.perf_counter() - t0
        self.samples[which].append(dt)
        self.spent_s += dt

    def start(self) -> None:
        for kernel in KERNELS:  # first calls pay one-off costs; keep them out
            kernel(self._rng)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling; one last sample of each kernel guarantees that the
        whole-run reference exists however short the run was."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in KERNELS:
            self._tick(None, None)

    def mark(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.samples)

    def reference(self, since: tuple[int, ...] | None = None) -> float | None:
        """Sum over kernels of their mean time since the mark (None when a
        kernel has no sample in the interval)."""
        since = since or (0,) * len(KERNELS)
        parts = [s[i:] for s, i in zip(self.samples, since)]
        if not all(parts):
            return None
        return sum(sum(p) / len(p) for p in parts)
