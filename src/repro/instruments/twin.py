"""Physics-aware digital twins (milestone M3).

A :class:`DigitalTwin` mirrors a physical instrument: it knows the
instrument's operating envelope *and* a safety/science envelope narrower
than the hardware interlocks, and it can cheaply predict what a request
would produce (with twin model error).  The verification layer (E2) uses
twins to vet agent-proposed experiments before execution — "testing and
validating autonomous workflows before deployment on physical
instruments" (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

import numpy as np

from repro.instruments.base import Instrument

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.labsci.landscapes import Landscape
    from repro.sim.rng import RngRegistry


@dataclass
class TwinVerdict:
    """Outcome of a twin validation run."""

    ok: bool
    reasons: list[str] = field(default_factory=list)
    predicted: dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


class DigitalTwin:
    """A validated model of one instrument plus its scientific context.

    Parameters
    ----------
    instrument:
        The physical instrument being twinned.
    landscape:
        Ground truth; the twin sees it only through ``TWIN_ERROR``.
    rngs:
        RNG registry for the twin's model error.
    safety_envelope:
        Parameter bounds tighter than the hardware interlocks, encoding
        scientific/safety knowledge (e.g. solvent boiling points).
    """

    #: Fractional RMS error of twin predictions vs truth.
    TWIN_ERROR = 0.10
    #: Simulated cost of one validation (twins are cheap, not free).
    CHECK_TIME_S = 2.0

    def __init__(self, instrument: Instrument,
                 landscape: Optional["Landscape"] = None,
                 rngs: Optional["RngRegistry"] = None,
                 safety_envelope: Optional[dict[str, tuple[float, float]]] = None,
                 forbidden_combinations: Optional[list[dict[str, Any]]] = None,
                 ) -> None:
        self.instrument = instrument
        self.landscape = landscape
        self.rng = (rngs.stream(f"twin/{instrument.name}")
                    if rngs is not None else np.random.default_rng(0))
        self.safety_envelope = safety_envelope or {}
        self.forbidden_combinations = forbidden_combinations or []
        self.stats = {"validations": 0, "rejections": 0, "predictions": 0}

    # -- static validation ----------------------------------------------------

    def check(self, params: Mapping[str, Any]) -> TwinVerdict:
        """Instantaneous envelope/combination screening (no sim time)."""
        self.stats["validations"] += 1
        reasons: list[str] = []
        # Hardware interlocks first.
        for key, (lo, hi) in self.instrument.operating_envelope().items():
            if key in params and isinstance(params[key], (int, float)):
                v = float(params[key])
                if not lo <= v <= hi:
                    reasons.append(
                        f"{key}={v} violates hardware interlock [{lo},{hi}]")
        # Safety/science envelope (tighter).
        for key, (lo, hi) in self.safety_envelope.items():
            if key in params and isinstance(params[key], (int, float)):
                v = float(params[key])
                if not lo <= v <= hi:
                    reasons.append(
                        f"{key}={v} outside safe envelope [{lo},{hi}]")
        # Forbidden combinations, e.g. {"solvent": "DMF",
        # "temperature": (160.0, None)} = DMF above 160 C.
        for combo in self.forbidden_combinations:
            if self._combo_applies(combo, params):
                reasons.append(f"forbidden combination: {combo}")
        if self.landscape is not None:
            try:
                self.landscape.space.validate(dict(params))
            except ValueError as exc:
                reasons.append(f"invalid parameters: {exc}")
        ok = not reasons
        if not ok:
            self.stats["rejections"] += 1
        return TwinVerdict(ok=ok, reasons=reasons)

    @staticmethod
    def _combo_applies(combo: Mapping[str, Any],
                       params: Mapping[str, Any]) -> bool:
        for key, want in combo.items():
            if key not in params:
                return False
            have = params[key]
            if isinstance(want, tuple):
                lo, hi = want
                if not isinstance(have, (int, float)):
                    return False
                if lo is not None and float(have) < lo:
                    return False
                if hi is not None and float(have) > hi:
                    return False
            elif have != want:
                return False
        return True

    # -- predictive validation --------------------------------------------------------

    def predict(self, params: Mapping[str, Any]) -> dict[str, float]:
        """Twin-model property prediction (truth + multiplicative error)."""
        if self.landscape is None:
            raise RuntimeError("twin has no landscape model")
        self.stats["predictions"] += 1
        truth = self.landscape.evaluate(params)
        return {k: float(v * (1.0 + self.rng.normal(0.0, self.TWIN_ERROR)))
                for k, v in truth.items()}

    def validate(self, params: Mapping[str, Any],
                 expected: Optional[Mapping[str, float]] = None,
                 tolerance: float = 0.5):
        """Generator: full in-situ validation, spending sim time.

        Checks envelopes, then (if ``expected`` is given) compares the
        planner's predicted outcome against the twin's own prediction; a
        relative disagreement beyond ``tolerance`` flags the plan as
        scientifically ungrounded.
        """
        yield self.instrument.sim.timeout(self.CHECK_TIME_S)
        verdict = self.check(params)
        if not verdict.ok or expected is None or self.landscape is None:
            return verdict
        predicted = self.predict(params)
        verdict.predicted = predicted
        for key, exp_value in expected.items():
            if key not in predicted:
                continue
            scale = max(abs(predicted[key]), 1e-6)
            if abs(predicted[key] - float(exp_value)) / scale > tolerance:
                verdict.ok = False
                verdict.reasons.append(
                    f"claimed {key}={exp_value:.4g} disagrees with twin "
                    f"prediction {predicted[key]:.4g}")
                self.stats["rejections"] += 1
        return verdict
