"""Streaming data-quality assessment (milestone M7).

Autonomous systems "require qualification mechanisms that can
automatically assess data reliability based on experimental conditions,
instrument status, and historical patterns" (§3.2).  The
:class:`QualityAssessor` combines three such signals per record:

1. **Schema/range checks** — are the values physical?
2. **Historical pattern** — a rolling robust z-score per quantity
   (:class:`AnomalyDetector`).
3. **Instrument status** — records produced by drifted/faulted
   instruments are discounted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.data.record import DataRecord
from repro.data.schema import Schema


@dataclass
class QualityReport:
    """Outcome of one assessment."""

    score: float
    flags: list[str] = field(default_factory=list)
    anomalous: bool = False
    z_scores: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {"score": round(self.score, 4), "flags": list(self.flags),
                "anomalous": self.anomalous}


class AnomalyDetector:
    """Rolling robust z-score detector per quantity.

    Uses median/MAD over a bounded window, so single outliers do not
    poison the baseline (the "bad data propagating through AI-driven
    decision chains" failure mode the paper warns about).
    """

    #: Observations kept per quantity.
    WINDOW = 64

    def __init__(self, z_threshold: float = 4.0,
                 min_history: int = 8) -> None:
        self.z_threshold = z_threshold
        self.min_history = min_history
        self._history: dict[str, deque] = {}

    def z_score(self, key: str, value: float) -> Optional[float]:
        """Robust z of ``value`` against history (None if too little)."""
        hist = self._history.get(key)
        if hist is None or len(hist) < self.min_history:
            return None
        arr = np.asarray(hist)
        med = float(np.median(arr))
        mad = float(np.median(np.abs(arr - med)))
        scale = 1.4826 * mad if mad > 0 else (float(np.std(arr)) or 1e-12)
        return (value - med) / scale

    def observe(self, key: str, value: float) -> Optional[float]:
        """Score then absorb the observation; returns the z-score."""
        z = self.z_score(key, value)
        hist = self._history.setdefault(key, deque(maxlen=self.WINDOW))
        # Extreme outliers are scored but NOT absorbed into the baseline.
        if z is None or abs(z) <= self.z_threshold:
            hist.append(float(value))
        return z

    def is_anomalous(self, z: Optional[float]) -> bool:
        return z is not None and abs(z) > self.z_threshold


class QualityAssessor:
    """Per-record quality scoring, stamped into ``record.quality``."""

    def __init__(self, schema: Optional[Schema] = None,
                 detector: Optional[AnomalyDetector] = None,
                 drift_tolerance: float = 0.1) -> None:
        self.schema = schema
        self.detector = detector or AnomalyDetector()
        self.drift_tolerance = drift_tolerance
        self.stats = {"assessed": 0, "anomalies": 0, "schema_violations": 0}

    def assess(self, record: DataRecord,
               instrument_state: Optional[Mapping[str, Any]] = None
               ) -> QualityReport:
        """Assess and stamp one record.

        ``instrument_state`` optionally carries ``{"status": str,
        "calibration_bias": float}`` from the producing instrument.
        """
        self.stats["assessed"] += 1
        score = 1.0
        flags: list[str] = []
        z_scores: dict[str, float] = {}

        if self.schema is not None:
            problems = self.schema.validate(record.values)
            if problems:
                self.stats["schema_violations"] += 1
                score -= 0.3
                flags.extend(f"schema:{p}" for p in problems)

        anomalous = False
        for key, value in record.values.items():
            if not isinstance(value, (int, float)):
                continue
            if not np.isfinite(value):
                score -= 0.4
                flags.append(f"non-finite:{key}")
                continue
            z = self.detector.observe(f"{record.source}/{key}", float(value))
            if z is not None:
                z_scores[key] = round(float(z), 3)
                if self.detector.is_anomalous(z):
                    anomalous = True
                    flags.append(f"outlier:{key}(z={z:.1f})")
        if anomalous:
            self.stats["anomalies"] += 1
            score -= 0.3

        if instrument_state:
            status = instrument_state.get("status", "idle")
            if status in ("fault", "offline"):
                score -= 0.5
                flags.append(f"instrument:{status}")
            bias = abs(float(instrument_state.get("calibration_bias", 0.0)))
            if bias > self.drift_tolerance:
                score -= 0.2
                flags.append(f"instrument:drifted({bias:.3f})")

        report = QualityReport(score=max(0.0, score), flags=flags,
                               anomalous=anomalous, z_scores=z_scores)
        record.quality = report.as_dict()
        return report
