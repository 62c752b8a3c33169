"""Calibration drift and automated recalibration (milestone M4).

Drift is modelled as a random-walk bias that grows with operating hours;
"equipment calibration differences introduce systematic variations that
current systems cannot automatically reconcile" (§3.2) is exactly this
bias, and automated calibration resets it.
"""

from __future__ import annotations

import numpy as np


class CalibrationModel:
    """Random-walk measurement bias accumulated per operating hour.

    Parameters
    ----------
    rng:
        Noise stream.
    drift_per_hour:
        Standard deviation of the bias increment per operating hour.
    initial_bias:
        Bias right after (mis)installation.
    procedure_time_s:
        Duration of one automated calibration run.
    max_abs_bias:
        Physical bound on how far the instrument can drift.
    """

    def __init__(self, rng: np.random.Generator, drift_per_hour: float = 0.001,
                 initial_bias: float = 0.0, procedure_time_s: float = 600.0,
                 max_abs_bias: float = 0.5) -> None:
        self.rng = rng
        self.drift_per_hour = drift_per_hour
        self.procedure_time_s = procedure_time_s
        self.max_abs_bias = max_abs_bias
        self._bias = initial_bias
        self.calibrations = 0
        self.hours_since_calibration = 0.0

    def accumulate(self, hours: float) -> None:
        """Advance the drift random walk by ``hours`` of operation."""
        if hours <= 0:
            return
        step = self.rng.normal(0.0, self.drift_per_hour * np.sqrt(hours))
        self._bias = float(np.clip(self._bias + step,
                                   -self.max_abs_bias, self.max_abs_bias))
        self.hours_since_calibration += hours

    def bias(self) -> float:
        """Current systematic measurement offset."""
        return self._bias

    def reset(self) -> None:
        """Automated calibration: zero the bias."""
        self._bias = 0.0
        self.calibrations += 1
        self.hours_since_calibration = 0.0

    def needs_calibration(self, tolerance: float) -> bool:
        """Would a QA check flag this instrument?"""
        return abs(self._bias) > tolerance
