"""Machine-speed calibration for the timed passes.

The reference machine is a shared virtual machine whose speed drifts: the
same fixed work takes up to 1.6 times longer in one ten-second window than
in another, and bytecode, Fraction arithmetic, numpy calls on small arrays
and cache-missing loads slow down together.  A pass's wall time alone
therefore measures the machine as much as the program.

`Meter` samples the speed while a pass runs.  A timer interrupts the pass
every `INTERVAL` seconds and times `kernel()`, fixed work of those kinds
that takes about 2 ms; the pass itself is not changed.  The pass's wall
time, less the time spent in samples, is then scaled by the mean measured
speed relative to the reference speed (`REF_KERNEL_S`):

    scaled = (wall - sampling) * mean(REF_KERNEL_S / sample)

`scaled` is the wall time the pass would have taken at the reference speed.
The kernel does not use the program, so a program that does its work in
half the time reads half, while a machine that runs everything slower for
a while reads the same.  The kernel's five parts take about equal time;
that mix tracked all three workloads' passes best (pass-to-pass spread
0.02-0.04 of the median, against 0.15-0.18 unscaled).
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.1           # seconds between samples during a pass
REF_KERNEL_S = 0.0015    # kernel() time on the reference machine when quiet

_FRACTIONS = [Fraction(k, k + 1) for k in range(1, 101)]
_ARRAYS = None   # numpy arrays for kernel(), made on first use


def _arrays():
    global _ARRAYS
    if _ARRAYS is None:
        import numpy  # not at import time: the runner pins BLAS threads first
        rng = numpy.random.default_rng(0)
        _ARRAYS = (numpy.exp,
                   1j * numpy.linspace(0.0, 1.0, 4096),   # 64 KiB
                   numpy.linspace(0.0, 1.0, 16),
                   rng.random(1 << 20),                    # 8 MiB
                   rng.integers(0, 1 << 20, 22_000))
    return _ARRAYS


def kernel() -> None:
    """Fixed work: bytecode, Fractions, complex exp, small arrays, gathers."""
    exp, wave, small, big, index = _arrays()
    s = 0
    for k in range(4_500):
        s += k * k
    f = Fraction(0)
    for x in _FRACTIONS:
        f += x
    for _ in range(3):
        exp(wave)
    for _ in range(80):
        (small * 2.0 + 1.0).sum()
    big.take(index).sum()


def sample() -> float:
    """Seconds that one kernel() takes now."""
    _arrays()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Mean speed over the reference speed: the scale for wall times."""
    return statistics.fmean(REF_KERNEL_S / s for s in samples)


class Meter:
    """Context manager: time a block and sample the machine speed during it.

    Uses SIGALRM, so it runs in the main thread only, and a block must not
    set its own interval timer.  Attributes after exit: `wall` (seconds,
    sampling included), `sampling` (seconds spent in samples), `samples`.
    """

    def __enter__(self):
        self.samples = [sample()]
        self.sampling = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.sampling += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(sample())
        return False

    @property
    def factor(self) -> float:
        return factor(self.samples)

    @property
    def scaled(self) -> float:
        """Wall time of the block, without sampling, at the reference speed."""
        return (self.wall - self.sampling) * self.factor
