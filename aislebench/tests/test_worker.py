"""Tests of the worker's phase clock.

Run with ``python3 -m pytest aislebench/tests -q`` from the repository root.
"""

from __future__ import annotations

import signal
import time

import pytest

import worker


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_phase_clock_takes_samples_out_of_the_phase():
    previous = signal.getsignal(signal.SIGALRM)
    try:
        clock = worker.PhaseClock(sample=True)
        t0 = time.perf_counter()
        with clock.phase("run"):
            _spin(0.4)
        wall = time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, previous)
    samples = clock.samples["run"]
    assert len(samples) >= 3
    assert clock.samples["setup"] == []
    assert clock.seconds["run"] + sum(samples) == pytest.approx(wall,
                                                                abs=0.005)
    assert clock.speed("run") > 0
    # The timer is disarmed when the phase ends.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_phase_clock_without_sampling_reports_wall_time():
    clock = worker.PhaseClock(sample=False)
    t0 = time.perf_counter()
    with clock.phase("setup"):
        _spin(0.12)
    wall = time.perf_counter() - t0
    assert clock.samples == {"setup": [], "run": []}
    assert clock.seconds["setup"] == pytest.approx(wall, abs=0.005)
    assert clock.speed("setup") == 1.0
