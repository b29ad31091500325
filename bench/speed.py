"""Host-speed probe: times a fixed reference kernel throughout a run so that
task times can be scaled to a reference speed.

On a shared host the CPU itself runs faster or slower by tens of percent
for seconds to minutes at a time, as neighbours load the machine, and CPU
time does not remove that.  While a :class:`SpeedProbe` is active, a
``SIGPROF`` timer interrupts the process every ``INTERVAL_S`` of its CPU
time and runs :func:`reference_kernel` twice, timing the second run.  The
kernel mixes the two kinds of work the package does: small-matrix numpy
and LAPACK calls from Python, and batched operations over an array of
about 1 MB.  The slowdown near an interval is the mean kernel time near it
over ``NOMINAL_S``; dividing a task's CPU time by it gives the task's time
at the reference speed.

The kernel does not depend on the package, and the untimed first run
refills the caches the package's work evicted, so a change to the package
moves neither the kernel nor the state the timed run starts from.  Time
spent in the probe is counted separately and taken out of task times.
Python runs the handler between bytecodes of the main thread, never inside
a numpy call.
"""

from __future__ import annotations

import signal
import statistics
from time import thread_time

import numpy as np

INTERVAL_S = 0.1        # CPU time between probes
# About the mean timed reference_kernel run on the machine of the baseline
# in README.md, so a slowdown of 1 is that machine's usual speed.
NOMINAL_S = 1.3e-3
# The slowdown of an interval with fewer probes inside it is taken over
# this many probes nearest to its middle.
MIN_SAMPLES = 10

_rng = np.random.default_rng(20261018)
_SMALL = [(lambda z: z @ z.conj().T)(_rng.standard_normal((8, 8))
                                     + 1j * _rng.standard_normal((8, 8)))
          for _ in range(4)]
_BATCH = _rng.standard_normal((1024, 8, 8)) + 1j * _rng.standard_normal((1024, 8, 8))
_ANGLES = _rng.uniform(0.0, 2 * np.pi, (1024, 8))


def reference_kernel() -> float:
    """About a millisecond of fixed work: eigenvalues and partial traces of
    8x8 matrices in a Python loop, then a batched matrix-vector product."""
    acc = 0.0
    for matrix in _SMALL:
        for _ in range(6):
            values = np.linalg.eigvalsh(matrix)
            reduced = np.einsum("ijik->jk", matrix.reshape(2, 4, 2, 4))
            acc += float(np.sum(values * values)) + float(reduced.real.trace())
    products = np.matmul(_BATCH, np.exp(1j * _ANGLES)[..., None])
    return acc + float((products.real ** 2 + products.imag ** 2).sum())


class SpeedProbe:
    """Context manager that times :func:`reference_kernel` every
    ``INTERVAL_S`` of CPU time.  Time stamps are this thread's CPU time
    (``time.thread_time``), the clock the benchmark times tasks with: with
    a ``SIGPROF`` timer armed, Linux reads the process CPU clock only at
    scheduler ticks."""

    def __init__(self):
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0            # total probe time so far
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def _sample(self, signum, frame):
        start = thread_time()
        reference_kernel()
        timed = thread_time()
        reference_kernel()
        end = thread_time()
        self.stamps.append(start)
        self.durations.append(end - timed)
        self.spent += end - start

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time over ``NOMINAL_S`` for the probes taken in the
        CPU-time interval [start, end], or the ``MIN_SAMPLES`` probes
        nearest to its middle when fewer fell inside."""
        inside = [spent for stamp, spent in zip(self.stamps, self.durations)
                  if start <= stamp <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(range(len(self.stamps)),
                             key=lambda i: abs(self.stamps[i] - middle))
            inside = [self.durations[i] for i in nearest[:MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("the speed probe took no samples")
        return statistics.fmean(inside) / NOMINAL_S
