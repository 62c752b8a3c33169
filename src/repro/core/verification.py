"""The verification and validation stack (M8, research priority 2 of §3.3).

"Infrastructure for verification and validation for AI agents
incorporating digital twin-based in-situ simulations, formal methods,
symbolic verification methods to enforce logical, physics-based
constraints as hard boundaries."

Two verifiers, composable in a :class:`VerificationStack`:

- :class:`PhysicsConstraintVerifier` — symbolic/logical checks: domain
  validity, safety envelopes, forbidden combinations, and physical sanity
  of *claimed* outcomes (a PLQY cannot exceed 1).  Instantaneous.
- :class:`TwinVerifier` — digital-twin in-situ simulation of the plan
  (costs simulated time, catches claims that disagree with physics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.agents.planner import ExperimentPlan
from repro.instruments.twin import DigitalTwin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.labsci.landscapes import ParameterSpace
    from repro.sim.kernel import Simulator


@dataclass
class VerificationResult:
    """Aggregate verdict over the whole stack."""

    ok: bool
    reasons: list[str] = field(default_factory=list)
    checked_by: list[str] = field(default_factory=list)
    time_spent: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


class PhysicsConstraintVerifier:
    """Hard symbolic constraints — fast, deterministic, zero sim time.

    Parameters
    ----------
    space:
        The campaign parameter space (domain validity).
    safety_envelope:
        Tighter-than-interlock bounds per continuous parameter.
    forbidden_combinations:
        Combination constraints in :class:`DigitalTwin` syntax.
    outcome_bounds:
        Physical bounds on claimed outcomes, e.g.
        ``{"objective": (0.0, 1.0)}``.
    """

    name = "physics-constraints"

    def __init__(self, space: "ParameterSpace",
                 safety_envelope: Optional[Mapping[str, tuple[float, float]]] = None,
                 forbidden_combinations: Optional[list[dict[str, Any]]] = None,
                 outcome_bounds: Optional[Mapping[str, tuple[float, float]]] = None
                 ) -> None:
        self.space = space
        self.safety_envelope = dict(safety_envelope or {})
        self.forbidden_combinations = list(forbidden_combinations or [])
        self.outcome_bounds = dict(outcome_bounds or {})
        self.stats = {"checks": 0, "rejections": 0}

    def check(self, plan: ExperimentPlan) -> list[str]:
        self.stats["checks"] += 1
        reasons: list[str] = []
        try:
            self.space.validate(plan.params)
        except ValueError as exc:
            reasons.append(f"invalid parameters: {exc}")
        for key, (lo, hi) in self.safety_envelope.items():
            v = plan.params.get(key)
            if isinstance(v, (int, float)) and not lo <= float(v) <= hi:
                reasons.append(f"{key}={v} outside safe envelope [{lo}, {hi}]")
        for combo in self.forbidden_combinations:
            if DigitalTwin._combo_applies(combo, plan.params):
                reasons.append(f"forbidden combination: {combo}")
        for key, (lo, hi) in self.outcome_bounds.items():
            claimed = plan.expected.get(key)
            if claimed is not None and not lo <= float(claimed) <= hi:
                reasons.append(
                    f"claimed {key}={claimed} is physically impossible "
                    f"(bounds [{lo}, {hi}])")
        if reasons:
            self.stats["rejections"] += 1
        return reasons


class TwinVerifier:
    """Digital-twin in-situ validation (spends simulated time)."""

    name = "digital-twin"
    #: Relative slack the twin allows a claimed outcome.
    CLAIM_TOLERANCE = 0.6

    def __init__(self, twin: DigitalTwin, objective_key: str = "") -> None:
        self.twin = twin
        self.objective_key = objective_key
        self.stats = {"checks": 0, "rejections": 0}

    def validate(self, plan: ExperimentPlan):
        """Generator: returns a list of reasons (empty = pass)."""
        self.stats["checks"] += 1
        expected = None
        if plan.expected and self.twin.landscape is not None:
            key = self.objective_key or self.twin.landscape.objective
            if "objective" in plan.expected:
                expected = {key: plan.expected["objective"]}
        verdict = yield from self.twin.validate(
            plan.params, expected=expected, tolerance=self.CLAIM_TOLERANCE)
        if not verdict.ok:
            self.stats["rejections"] += 1
        return list(verdict.reasons)


class VerificationStack:
    """Ordered verifier pipeline with short-circuit rejection.

    Instantaneous verifiers (``check``) run first; time-bearing verifiers
    (``validate`` generators) only run on plans that survive them —
    cheap-first ordering keeps verification latency low.
    """

    def __init__(self, sim: "Simulator", verifiers: list[Any]) -> None:
        self.sim = sim
        self.verifiers = list(verifiers)
        self.stats = {"plans": 0, "rejected": 0, "time_spent": 0.0}

    def verify(self, plan: ExperimentPlan):
        """Generator: run the stack; returns a VerificationResult."""
        self.stats["plans"] += 1
        t0 = self.sim.now
        reasons: list[str] = []
        checked: list[str] = []
        instant = [v for v in self.verifiers if hasattr(v, "check")]
        timed = [v for v in self.verifiers if hasattr(v, "validate")]
        for v in instant:
            checked.append(v.name)
            reasons.extend(v.check(plan))
            if reasons:
                break
        if not reasons:
            for v in timed:
                checked.append(v.name)
                more = yield from v.validate(plan)
                reasons.extend(more)
                if reasons:
                    break
        elapsed = self.sim.now - t0
        self.stats["time_spent"] += elapsed
        ok = not reasons
        if not ok:
            self.stats["rejected"] += 1
        plan.verified = ok
        return VerificationResult(ok=ok, reasons=reasons, checked_by=checked,
                                  time_spent=elapsed)

    @property
    def rejection_rate(self) -> float:
        return (self.stats["rejected"] / self.stats["plans"]
                if self.stats["plans"] else 0.0)
