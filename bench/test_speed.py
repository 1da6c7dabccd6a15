"""The speed probe samples a call, leaves no timer behind, and rescales times.

    python3 -m pytest bench/test_speed.py
"""

from __future__ import annotations

import math
import signal
import time

import run
import speed


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_samples_every_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    _busy(20 * speed.PERIOD_S)
    probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert {k for k, _ in probe.durations} == set(range(len(speed.REF_S)))
    assert 0.0 < probe.probe_s() < 20 * speed.PERIOD_S
    assert 0.0 < probe.speed() < math.inf


def test_too_short_a_call_has_no_speed():
    probe = speed.SpeedProbe()
    probe.start()
    probe.stop()
    assert math.isnan(probe.speed())


def test_times_are_rescaled_after_removing_probe_time():
    sample = {"wall_s": 2.1, "cpu_s": 1.1, "probe_s": 0.1, "speed": 0.5}
    assert math.isclose(run._ref_s(sample, "wall_s"), 1.0)
    assert math.isclose(run._ref_s(sample, "cpu_s"), 0.5)
