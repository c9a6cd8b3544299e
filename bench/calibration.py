"""Host-speed calibration for the end-to-end times.

The reference host (a shared 2-vCPU VM) changes speed by up to 1.7x within
minutes, and hsvt's work slows or speeds up with it: ten compile-vt runs of
identical code took 23.5 to 34.4 s.  A fixed kernel of the same kinds of
work as hsvt (small complex LAPACK calls, interpreter loops, vectorised 2x2
products, a tall real SVD) tracks that drift: over six minutes of 30 s
windows its median time correlated at 0.96 with an application mix and at
0.97 with a compiler mix, and the max/min range of the mixes fell from 1.69
and 1.58 to 1.14 and 1.12 once divided by it.

The host also flips between a fast and a slow state within seconds (one
process saw its apps rounds run at 880 and at 1400 cascade steps/s, a few
seconds apart), so one factor per run does not follow it.  HostClock runs
the kernel from a timer signal every INTERVAL_S while a worker runs, and a
timed interval is scaled by the samples taken inside it: over the whole
compile, over each noise sweep (about a second), and per round of the
application stream (3 to 5 s) for the stream's shorter calls, which hold
the kernel back until they return, so it runs between them.  Per round,
the kernel followed the stream closely: rounds at 0.93-1.01 times the
reference kernel time ran 876-890 cascade steps/s, rounds at 0.59-0.64 ran
1340-1430.  The kernel's
own time is taken out of every timed call.  Scaled times read as seconds on
a host where one kernel call takes REFERENCE_S, about its median on the
reference host.  The kernel does not touch hsvt, so the scaling treats
every commit of hsvt alike.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 3.0e-3
INTERVAL_S = 0.1

_rng = np.random.default_rng(20210403)
_M = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_H = _M + _M.conj().T
_P = _rng.standard_normal((24, 64, 2, 2)) + 1j * _rng.standard_normal((24, 64, 2, 2))
_R = _rng.standard_normal((400, 48))


def kernel() -> float:
    x = 0.0
    for _ in range(30):
        x += float(np.linalg.svd(_M, compute_uv=False)[0])
        x += float(np.linalg.eigvalsh(_H)[0])
        for j in range(200):
            x += j * 1e-9
    x += float(np.einsum("knab,knbc->knac", _P, _P)[0, 0, 0, 0].real)
    return x + float(np.linalg.svd(_R, compute_uv=False)[0])


def slowdown_now(clock, runs: int = 9) -> float:
    """Median time of ``runs`` kernel calls made now, over REFERENCE_S."""
    times = []
    with clock.deferred():
        for _ in range(runs):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S


class HostClock:
    """Kernel timings taken while a worker runs; a context manager.

    ``spent`` is the total time the kernel has taken so far, to be taken
    out of any interval measured around it.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def deferred(self):
        """Hold the kernel back until the block ends.

        For calls of a few milliseconds: a kernel run inside one would leave
        it with cold caches, and the few calls it hit would make up the tail.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def slowdown(self, first: int = 0) -> float:
        """Mean time of the samples from index ``first`` on, over REFERENCE_S.

        Above 1 on a slower host.  The mean of evenly spaced samples follows
        the time-averaged speed, which is what an interval's length adds up.
        With no sample since ``first``, all samples are used.
        """
        samples = self.samples[first:] or self.samples
        return statistics.fmean(samples) / REFERENCE_S
