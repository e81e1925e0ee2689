"""Machine-speed reference, so timings taken on a shared host can be compared.

On a host shared with other machines the same fixed code runs 20-50% slower
in some phases than in others, with CPU time equal to wall time (no steal
is reported), and the phases last from seconds to minutes: whole runs shift.

``Speedometer`` times a fixed reference kernel, built from numpy and plain
Python and never from the program under test, every ``EVERY_S`` seconds
between ops.  A latency measured at ``[start, end]`` is scaled by
``NOMINAL_MS / kernel_ms``, with ``kernel_ms`` the median of the samples
taken within ``WINDOW_S`` of that interval.  The scaled value is the
latency the op would have had with the host at the reference speed (the
kernel taking ``NOMINAL_MS``); a change that makes the program faster or
slower moves it by the same share as the raw latency.

Kinds of code do not slow down alike, so there are two kernels, and each
workload names those its ops track (several are timed and summed):

- ``numpy``: a ReLU layer on medium arrays (a small matrix product,
  elementwise work on 10^4 values, a few calls' interpreter overhead).
  CLI reports, descent runs and start-up track it;
- ``python``: dict updates, arithmetic and a keyed sort in the interpreter.
  Library calls of about 0.1 ms track it, speeding up 20% more than the
  numpy kernel in fast phases; the 20-60 ms estimator calls next to them
  track the numpy kernel, so ``certify`` uses the sum of both.

Of the references tried (these two, many numpy calls on 50 values, a
120x120 BLAS product, and sums of them), these tracked their ops best
between calm and busy phases: op time over kernel time stayed within about
5% while both moved by up to 40%.  The host also switches between fast
and slow within a second, faster than sampling can follow; no window size
removes that from the tails.  Offline on recorded runs, windows of 0.3 s to
a whole run steadied medians and throughput alike, and 5-12 s gave the
steadiest ``op_p90_ms``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_MS = 1.5  # each kernel's typical median on a shared 2-core Xeon host (2.0 GHz)
EVERY_S = 0.1
WINDOW_S = 5.0


class Speedometer:
    def __init__(self, kernels: tuple[str, ...] = ("numpy",)):
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal((2000, 10))
        self._w = rng.standard_normal((5, 10))
        named = {"numpy": self._numpy_kernel, "python": self._python_kernel}
        self._kernels = [named[k] for k in kernels]
        self.nominal_ms = NOMINAL_MS * len(kernels)
        self.times: list[float] = []    # midpoint of each sample
        self.kernel_ms: list[float] = []
        self._kernel()  # the first call pays lazy set-up inside numpy

    def _kernel(self) -> None:
        for kernel in self._kernels:
            kernel()

    def _numpy_kernel(self) -> float:
        total = 0.0
        for _ in range(12):
            total += np.maximum(self._x @ self._w.T, 0.0).sum(axis=1).mean()
        return total

    @staticmethod
    def _python_kernel() -> int:
        table: dict[int, int] = {}
        for i in range(6000):
            table[i % 61] = table.get(i % 61, 0) + (i * i) % 7
        return sorted(table.items(), key=lambda kv: kv[1])[0][1]

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.kernel_ms.append((end - start) * 1e3)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """nominal_ms over the kernel's median near [start, end]; the nearest
        sample alone if none lies within WINDOW_S."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            near = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            lo, hi = near, near + 1
        return self.nominal_ms / statistics.median(self.kernel_ms[lo:hi])
