"""Host-speed reference: a fixed piece of work timed beside each pass.

The benchmark runs on shared hosts whose CPU throughput drifts, as other
tenants load the same physical cores, by up to 1.6x, for a second or for
minutes at a time; every timing moves with it, the median of a whole run
included.  Each pass therefore also
times :func:`kernel`, a fixed mix of the kinds of work ``lsalab`` does (an
interpreter loop, small-array numpy calls, a batched ``einsum``, a large draw
of normals), in about equal shares, that runs none of ``lsalab``'s code; no
one of them alone follows the slowdown of all four workloads as closely as the
mix.  A :class:`Clock` runs the kernel between operations and scales the work
timed since its last run by ``REF_S`` over the mean kernel time at its two
ends: the time the work would have taken on a host where the kernel takes
``REF_S``.  A change to ``lsalab`` moves the scaled times as it moves the raw
ones; a busier host slows the work and the kernel alike, and largely cancels.
The raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: the kernel's time on an unloaded host (about that of a 2.1 GHz Xeon vCPU);
#: it only sets the scale, so that scaled times read as seconds
REF_S = 0.02
#: kernel runs per calibration point
REPEATS = 2


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    import numpy as np  # imported here: the pass's set-up times numpy's import

    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i
    rng = np.random.default_rng(0)
    A, b = rng.standard_normal((2, 2)), rng.standard_normal(2)
    x = np.zeros((100, 2))
    for _ in range(800):
        x = x - 0.01 * (x @ A.T - b)
    M = rng.standard_normal((2500, 6, 6))
    np.einsum("nij,njk,nlk->il", M, M, M, optimize=False)
    rng.standard_normal(400_000)
    return time.perf_counter() - t0


class Clock:
    """Raw and reference-speed totals of timed work, kernel runs between them."""

    def __init__(self, setup_s: float):
        self.kernel_s: list[float] = []
        self.raw = {"setup_s": setup_s, "wall_s": 0.0, "cpu_s": 0.0}
        self.ref = {"setup_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0}
        self._pending = {"setup_s": setup_s}
        self._last: float | None = None

    def add(self, wall_s: float, cpu_s: float) -> None:
        """Count one operation's times; they are scaled at the next calibration."""
        for key, value in (("wall_s", wall_s), ("cpu_s", cpu_s)):
            self.raw[key] += value
            self._pending[key] = self._pending.get(key, 0.0) + value

    def calibrate(self) -> None:
        """Run the kernel ``REPEATS`` times and scale the work done since the last run.

        The set-up, timed before the first run, is scaled by that run alone.
        """
        if self._last is None:
            kernel()  # untimed: the first run in a process pays one-off costs
        times = [kernel() for _ in range(REPEATS)]
        self.kernel_s.extend(times)
        now = statistics.median(times)
        factor = REF_S / (now if self._last is None else (self._last + now) / 2)
        for key, value in self._pending.items():
            self.ref[key] += value * factor
        self._pending, self._last = {}, now
