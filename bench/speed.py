"""Host-speed probe: rescales a measured time to a host of fixed speed.

On a shared host a co-tenant can slow this program's instructions by up to
~1.8x, switching on and off every few seconds.  Runs a minute apart then
differ by more than any useful regression bound, and no statistic over one
run removes that, because whole runs fall into slow periods.

``SpeedProbe`` measures the host's speed *during* the timed call: a
``SIGALRM`` every ``PERIOD_S`` runs one of four small fixed kernels in the
calling process, in turn, and times it.  The kernels mirror the program's
kinds of work: interpreter-bound Python, per-step numpy on 64-row complex
arrays (the propagator), Philox substreams with ``lfilter`` (the noise) and
an index gather over about 2 MB (the bootstrap).  Each probe's speed is its
reference duration ``REF_S`` divided by its measured duration; the mean
over the call is the host's speed relative to the reference host.

A time ``t`` measured with the probe running becomes
``(t - probe time) * speed``: reference seconds (unit ``ref_s``), the time
the call would have taken on a host where the kernels take ``REF_S``.  The
constants fix that unit once; they need not match any host, and both sides
of a comparison share them.  Probes take about 2 % of the call's time.

The kernels touch no state of the program and allocate no large arrays.
Interval timers are not inherited across ``fork``, so pool children are
never probed; the parent's probes, which wake it while it waits, stand for
the host's speed.  They share the CPUs with the children, so on the pool
path the host reads ~20 % slower than on a serial call at the same time; the
bias holds while the pool's size does.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.signal import lfilter

PERIOD_S = 0.05
# duration of each kernel on the reference host (a quiet 2-vCPU Xeon VM)
REF_S = (0.00052, 0.00053, 0.00055, 0.00049)


class SpeedProbe:
    """Times the kernels on a timer signal between ``start`` and ``stop``."""

    def __init__(self):
        rng = np.random.default_rng(20170317)
        self._fields = rng.standard_normal((30, 64))
        self._z = np.exp(1j * rng.standard_normal(4000))
        self._idx = rng.integers(0, len(self._z), size=(20, len(self._z)))
        # preallocated: a probe must not move the allocator's mmap threshold,
        # which would change the program's peak RSS
        self._gathered = np.empty(self._idx.shape, dtype=complex)
        self._kernels = (self._python, self._propagate, self._bootstrap, self._noise)
        self.durations = []  # (kernel index, seconds)
        self._next = 0
        for kernel in self._kernels:  # first calls pay one-off costs
            kernel()

    @staticmethod
    def _python():
        s = 0
        for i in range(8000):
            s += i * i % 7
        return s

    def _propagate(self):
        p0 = np.full(64, 1.0 + 0j)
        p1 = np.zeros(64, dtype=complex)
        for b in self._fields:
            norm = np.sqrt(0.25 + b * b)
            c = np.cos(0.05 * norm)
            s = np.where(norm > 0.0, np.sin(0.05 * norm) / norm, 0.0)
            p0, p1 = (c * p0 - 1j * s * (b * p0 + 0.5 * p1),
                      c * p1 - 1j * s * (0.5 * p0 - b * p1))
        return p0

    def _bootstrap(self):
        np.take(self._z, self._idx, out=self._gathered)
        return self._gathered.mean(axis=1)

    @staticmethod
    def _noise():
        for r in range(15):
            ss = np.random.SeedSequence(entropy=2024, spawn_key=(3, r))
            x = np.random.Generator(np.random.Philox(ss)).standard_normal(240)
            lfilter([0.2], [1.0, -0.8], x[1:], zi=[0.1])

    def _on_alarm(self, signum, frame):
        index = self._next
        self._next = (index + 1) % len(self._kernels)
        t0 = time.perf_counter()
        self._kernels[index]()
        self.durations.append((index, time.perf_counter() - t0))

    def start(self):
        self.durations.clear()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_s(self) -> float:
        """Time spent in probes since ``start``."""
        return sum(d for _, d in self.durations)

    def speed(self) -> float:
        """Host speed relative to the reference host, over the probed call.

        NaN when the call was too short for every kernel to run once, which
        only a call that failed at once can be.
        """
        if len(self.durations) < len(self._kernels):
            return float("nan")
        return statistics.fmean(REF_S[k] / d for k, d in self.durations)
