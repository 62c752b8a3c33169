"""Virtual-laboratory training curriculum (milestone M14).

"Deploy educational infrastructure including immersive virtual laboratory
environments that simulate autonomous systems in multiple scientific
domains ... with measurable learning outcomes."

A :class:`Trainee` carries a competency vector over :data:`COMPETENCIES`;
:class:`TrainingModule` objects raise specific competencies with
diminishing returns and prerequisites; the
:class:`VirtualLabCurriculum` schedules a cohort through modules on the
simulation clock, producing the learning trajectories E13 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

#: The interdisciplinary competencies §3.5 says curricula must cover.
COMPETENCIES = ("ai-collaboration", "instrument-operation",
                "data-literacy", "lab-safety", "workflow-thinking")


@dataclass
class Trainee:
    """One student/scientist in the program."""

    name: str
    competencies: dict[str, float] = field(default_factory=dict)
    modules_completed: list[str] = field(default_factory=list)
    trajectory: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for c in COMPETENCIES:
            self.competencies.setdefault(c, 0.1)

    def overall(self) -> float:
        return float(np.mean([self.competencies[c] for c in COMPETENCIES]))

    def meets(self, requirements: dict[str, float]) -> bool:
        return all(self.competencies.get(k, 0.0) >= v
                   for k, v in requirements.items())


@dataclass
class TrainingModule:
    """One unit of instruction in the virtual lab.

    ``gains`` maps competency -> maximal gain; actual gain shrinks as the
    trainee approaches mastery (diminishing returns), with per-trainee
    aptitude noise.
    """

    name: str
    duration_s: float
    gains: dict[str, float]
    prerequisites: dict[str, float] = field(default_factory=dict)
    hands_on: bool = False

    def apply(self, trainee: Trainee, rng: np.random.Generator) -> float:
        """Mutate the trainee's competencies; returns total gain."""
        total = 0.0
        for comp, max_gain in self.gains.items():
            current = trainee.competencies.get(comp, 0.1)
            aptitude = float(np.clip(rng.normal(1.0, 0.15), 0.5, 1.5))
            # Hands-on modules are worth more (the paper's "experiential
            # learning" emphasis).
            boost = 1.3 if self.hands_on else 1.0
            gain = max_gain * aptitude * boost * (1.0 - current)
            trainee.competencies[comp] = min(1.0, current + gain)
            total += trainee.competencies[comp] - current
        trainee.modules_completed.append(self.name)
        return total


def standard_curriculum() -> list[TrainingModule]:
    """The reference AISLE curriculum used by tests/benchmarks."""
    h = 3600.0
    return [
        TrainingModule("foundations", 8 * h,
                       {"data-literacy": 0.3, "workflow-thinking": 0.2}),
        TrainingModule("instrument-bootcamp", 16 * h,
                       {"instrument-operation": 0.4, "lab-safety": 0.3},
                       hands_on=True),
        TrainingModule("agent-teaming-101", 8 * h,
                       {"ai-collaboration": 0.35},
                       prerequisites={"data-literacy": 0.25}),
        TrainingModule("virtual-campaign-lab", 24 * h,
                       {"ai-collaboration": 0.3, "workflow-thinking": 0.35,
                        "instrument-operation": 0.2},
                       prerequisites={"ai-collaboration": 0.3,
                                      "instrument-operation": 0.3},
                       hands_on=True),
        TrainingModule("safety-and-override", 8 * h,
                       {"lab-safety": 0.4, "ai-collaboration": 0.15},
                       prerequisites={"lab-safety": 0.2},
                       hands_on=True),
    ]


class VirtualLabCurriculum:
    """Runs a cohort through modules on the simulation clock."""

    def __init__(self, sim: "Simulator", rng: np.random.Generator) -> None:
        self.sim = sim
        self.rng = rng
        self.modules = standard_curriculum()
        self.log: list[tuple[float, str, str]] = []

    def train(self, trainee: Trainee):
        """Generator: push one trainee through every module they qualify
        for, in order, recording their competency trajectory."""
        trainee.trajectory.append((self.sim.now, trainee.overall()))
        for module in self.modules:
            if not trainee.meets(module.prerequisites):
                self.log.append((self.sim.now, trainee.name,
                                 f"skipped:{module.name}"))
                continue
            yield self.sim.timeout(module.duration_s)
            gain = module.apply(trainee, self.rng)
            self.log.append((self.sim.now, trainee.name,
                             f"completed:{module.name}(+{gain:.3f})"))
            trainee.trajectory.append((self.sim.now, trainee.overall()))
        return trainee

    def train_cohort(self, trainees: list[Trainee]):
        """Generator: train a cohort concurrently; returns the cohort."""
        procs = [self.sim.process(self.train(t)) for t in trainees]
        yield self.sim.all_of(procs)
        return trainees
