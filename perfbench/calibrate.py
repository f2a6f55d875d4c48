"""Read op times at one nominal machine speed.

The benchmark runs on small shared machines whose speed drifts by a quarter
or more over tens of seconds, because other tenants load the host: one
decode request, repeated for 40 s, took anywhere from 270 to 450 ms. That
drift, not the program, would set the spread of every timing metric. So an
untraced run times a fixed reference kernel between its ops, about every
``EVERY_S`` seconds of op time, and reads each op's time against the
kernel's time around it:

    calibrated = measured * NOMINAL_S / (mean of the kernel runs just before and after)

The kernel is the benchmark's own numpy code, the same in every build of
the program, with the program's mix of work: a Python loop of small array
operations (as in a batch-1 decode forward) and 512-row matmuls with
elementwise quantization (as in a batch-16 forward). On a 2-vCPU VM, over
100 s of identical decode requests with a kernel run after each, the mean
request time of successive 8 s stretches ranged from 388 to 502 ms while
its ratio to the kernel's time ranged from 12.1 to 13.2. Calibration can
only take out drift that slows the kernel and the program alike; the
report line gives the measured times and the median factor beside the
calibrated ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# About the kernel's median time on the 2-vCPU x86_64 VM the benchmark was
# tuned on (numpy 2.4, one OpenBLAS thread), so that calibrated times read
# close to measured ones there. Any fixed value would do: it cancels in
# every comparison of two runs.
NOMINAL_S = 0.035
EVERY_S = 0.4

_rng = np.random.default_rng(0)
_WIDE = _rng.standard_normal((512, 128))
_W = _rng.standard_normal((128, 344))
_NARROW = _rng.standard_normal((16, 128))


def kernel() -> float:
    """A fixed amount of work like the program's; returns a checksum."""
    total = 0.0
    x = _WIDE
    for _ in range(4):
        y = x @ _W
        scale = np.abs(y).mean(axis=-1, keepdims=True) + 1e-5
        codes = np.clip(np.round(y / scale), -1, 1)
        x = (codes @ _W.T) / 344.0
        total += float(x[0, 0])
    for i in range(140):
        y = _NARROW @ _W
        scale = np.max(np.abs(y)) / 7.0 + 1e-5
        codes = np.clip(np.round(y / scale), -8, 7) * scale
        top = np.argpartition(-np.abs(codes), 172, axis=-1)[:, :172]
        total += float(codes[0, top[0, 0]]) + len({"step": i})
    return total


class Speedometer:
    """Kernel times interleaved with ops. An op records ``mark()`` (how many
    kernel runs preceded it); ``factor(mark)`` turns its measured time into
    a calibrated one."""

    def __init__(self):
        self.ref_s: list[float] = []
        self._op_s = 0.0
        kernel()  # the first run pays for cold caches and is not counted

    def tick(self, runs: int = 1) -> None:
        for _ in range(runs):
            start = perf_counter()
            kernel()
            self.ref_s.append(perf_counter() - start)
        self._op_s = 0.0

    def after_op(self, elapsed: float) -> None:
        """Run the kernel once ``EVERY_S`` of op time has passed since the last run."""
        self._op_s += elapsed
        if self._op_s >= EVERY_S:
            self.tick()

    def mark(self) -> int:
        return len(self.ref_s)

    def factor(self, mark: int, width: int = 1) -> float:
        """Calibration factor from the ``width`` kernel runs on either side of ``mark``."""
        around = self.ref_s[max(0, mark - width) : mark + width]
        return NOMINAL_S / statistics.fmean(around)

    def median_factor(self) -> float:
        return NOMINAL_S / statistics.median(self.ref_s)
