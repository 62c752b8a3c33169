"""Scenario-based assessment of human-AI collaboration competency (M14).

"Assessment methodologies for human-AI collaboration competencies with
measurable learning outcomes" — adapted, as §3.5 suggests, from medical
simulation training: the assessee faces a battery of simulated agent
proposals (some sound, some subtly wrong) and must decide which to trust.

Scoring separates the two distinct failure modes: accepting bad proposals
(over-trust) and rejecting good ones (under-trust).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hitl.curriculum import Trainee


@dataclass
class AssessmentScenario:
    """One simulated agent proposal the assessee must judge.

    Attributes
    ----------
    description:
        Human-readable scenario label.
    agent_is_right:
        Ground truth: should the proposal be accepted?
    difficulty:
        In [0, 1]; harder scenarios need more competency to judge.
    competency:
        Which competency dominates this judgement.
    """

    description: str
    agent_is_right: bool
    difficulty: float = 0.5
    competency: str = "ai-collaboration"


def standard_battery(rng: np.random.Generator,
                     n: int = 40) -> list[AssessmentScenario]:
    """A mixed battery: ~60% sound proposals, difficulty spread."""
    scenarios = []
    kinds = [
        ("agent proposes in-envelope synthesis", True, "ai-collaboration"),
        ("agent schedules maintenance correctly", True,
         "instrument-operation"),
        ("agent flags genuine data anomaly", True, "data-literacy"),
        ("agent proposes overheated solvent run", False, "lab-safety"),
        ("agent confabulates impossible yield", False, "ai-collaboration"),
        ("agent mislabels calibration drift as discovery", False,
         "data-literacy"),
    ]
    for i in range(n):
        desc, right, comp = kinds[int(rng.integers(0, len(kinds)))]
        scenarios.append(AssessmentScenario(
            description=f"{desc} #{i}", agent_is_right=right,
            difficulty=float(rng.uniform(0.2, 0.9)), competency=comp))
    return scenarios


@dataclass
class AssessmentReport:
    """Scores for one assessee."""

    trainee: str
    n_scenarios: int
    accuracy: float
    over_trust_rate: float   # accepted bad proposals / bad proposals
    under_trust_rate: float  # rejected good proposals / good proposals

    #: Accuracy at or above which an assessee passes.
    PASS_THRESHOLD = 0.75

    def passed(self) -> bool:
        return self.accuracy >= self.PASS_THRESHOLD


class CompetencyAssessment:
    """Administers a scenario battery to trainees."""

    def __init__(self, rng: np.random.Generator,
                 scenarios: Optional[list[AssessmentScenario]] = None) -> None:
        self.rng = rng
        self.scenarios = (scenarios if scenarios is not None
                          else standard_battery(rng))

    def _judges_correctly(self, trainee: Trainee,
                          scenario: AssessmentScenario) -> bool:
        skill = trainee.competencies.get(scenario.competency, 0.1)
        # Psychometric-style item response: P(correct) rises with the
        # skill-difficulty margin; a floor of 0.5 is guessing.
        margin = skill - scenario.difficulty
        p_correct = float(np.clip(0.5 + 0.65 * margin + 0.25 * skill,
                                  0.05, 0.98))
        return bool(self.rng.random() < p_correct)

    def administer(self, trainee: Trainee) -> AssessmentReport:
        correct = 0
        bad_total = bad_accepted = 0
        good_total = good_rejected = 0
        for scenario in self.scenarios:
            judged_right = self._judges_correctly(trainee, scenario)
            accepted = (scenario.agent_is_right if judged_right
                        else not scenario.agent_is_right)
            if judged_right:
                correct += 1
            if scenario.agent_is_right:
                good_total += 1
                if not accepted:
                    good_rejected += 1
            else:
                bad_total += 1
                if accepted:
                    bad_accepted += 1
        n = len(self.scenarios)
        return AssessmentReport(
            trainee=trainee.name, n_scenarios=n,
            accuracy=correct / n if n else 0.0,
            over_trust_rate=bad_accepted / bad_total if bad_total else 0.0,
            under_trust_rate=(good_rejected / good_total
                              if good_total else 0.0))

    def cohort_summary(self,
                       reports: list[AssessmentReport]) -> dict[str, float]:
        if not reports:
            return {"mean_accuracy": 0.0, "pass_rate": 0.0,
                    "mean_over_trust": 0.0, "mean_under_trust": 0.0}
        return {
            "mean_accuracy": float(np.mean([r.accuracy for r in reports])),
            "pass_rate": float(np.mean([r.passed() for r in reports])),
            "mean_over_trust": float(np.mean([r.over_trust_rate
                                              for r in reports])),
            "mean_under_trust": float(np.mean([r.under_trust_rate
                                               for r in reports])),
        }
