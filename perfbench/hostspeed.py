"""How fast the host runs at the moment, measured while the jobs run.

The benchmark's machine is a share of a host whose other tenants come and
go: the same job takes from 5 s to 7 s within minutes, with steal time
near 0, because the core itself runs slower.  So, while a child runs its
jobs, a wall-clock timer interrupts it every REF_PERIOD_S and runs a fixed
piece of reference work in the signal handler.  The mean time of those
samples taken during a job, and up to REF_MARGIN_S either side of it, over
REF_NOMINAL_S is the host's slowdown while the job ran; dividing the job's
time (handler time taken out) by it gives the job's time at the reference
speed.  The reference work is this file's own code and depends on
nothing in src/, so a change to the engine moves the jobs' times and not
the yardstick.
"""

import signal
import statistics
import time
from fractions import Fraction

REF_PERIOD_S = 0.1      # wall time between reference samples
REF_ITERS = 1200        # loop count of one sample
REF_MARGIN_S = 0.5      # a job's slowdown uses samples this close to it
# Time of one sample at the reference speed: about its mean on the
# machine the bounds were set on (2.1 GHz Xeon vCPU, CPython 3.11), which
# ran it in 6 to 12 ms as the host's load changed.  Only a unit: both
# sides of a comparison divide by the same constant.
REF_NOMINAL_S = 0.008


def reference_work():
    """Fixed pure-Python work of the engine's kind: Fraction products and
    sums into a dict keyed by small tuples."""
    acc = {}
    for i in range(REF_ITERS):
        v = Fraction(i % 11 + 1, i % 13 + 2) * Fraction(3, i % 7 + 1)
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + v
    return acc


class HostSpeed:
    """Samples the reference work on SIGALRM between start() and stop().

    ``spent`` is the wall time spent in samples so far; ``clock()`` reads
    it together with the wall clock.
    """

    def __init__(self):
        self.starts, self.times = [], []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """(wall time, sample time so far), read with SIGALRM held off;
        a sample due meanwhile runs once this returns."""
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def slowdown(self, t0=float("-inf"), t1=float("inf")):
        """Mean time of the samples taken from t0 - REF_MARGIN_S to
        t1 + REF_MARGIN_S, over the nominal one: the slowdown around a job
        that ran from t0 to t1 (perf_counter).  Without samples there,
        that of all samples; 1.0 without any."""
        near = [dt for t, dt in zip(self.starts, self.times)
                if t0 - REF_MARGIN_S <= t <= t1 + REF_MARGIN_S]
        near = near or self.times
        if not near:
            return 1.0
        return statistics.fmean(near) / REF_NOMINAL_S


def idle_slowdown(samples):
    """The host's slowdown now, from `samples` reference samples run back
    to back in this process."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times) / REF_NOMINAL_S
