"""A fixed reference computation that tracks the host's current speed.

On a shared 2-vCPU host the speed of the same code drifts by up to 1.8x
from one minute to the next, with the load of neighbouring machines.
The timed loop runs this kernel between operations and divides each
operation's time by the mean of the kernel times just before and just
after it, so the end-to-end time metrics compare the program against the
machine as it was at that moment.  The kernel mixes the kinds of work
the program does: a pure-Python integer loop, dict building and lookups,
Jacobi-like scalar reads and column rotations on a small matrix, and a
random row gather from a larger one.  It belongs to the benchmark, never
to the program, so no change to the program can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np


class Reference:
    """The reference kernel with its fixed inputs.

    Reference seconds are kernel units times nominal_s, about the kernel's
    time on a 2.1 GHz Xeon vCPU when the host is quiet.
    """

    nominal_s = 0.010

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.random((512, 512))
        self.rows = rng.integers(0, 512, 4000)
        self.small = rng.random((64, 64))
        for _ in range(3):  # first calls pay for caches and lazy numpy set-up
            self.time()

    def _kernel(self) -> float:
        acc = 0
        for i in range(40000):
            acc += i * i
        table = {i: 3 * i for i in range(4000)}
        acc += sum(table[k] for k in range(0, 4000, 3))
        a = self.small.copy()
        for p in range(63):
            for q in range(p + 1, 64, 4):
                h = a[q, q] - a[p, p]
                acc += int(1e6 * (math.copysign(1.0, h) / (abs(h) + math.hypot(h, 1.0)) + a[p, q]))
        for p in range(150):
            j, k = p % 64, (7 * p) % 63 + 1
            x, y = a[:, j].copy(), a[:, k].copy()
            a[:, j] = 0.6 * x - 0.8 * y
            a[:, k] = 0.8 * x + 0.6 * y
        return acc + float(self.big[self.rows].sum()) + float(a[0, 0])

    def time(self) -> float:
        """Seconds one run of the kernel takes now."""
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start
