"""E13 (milestones M13/M14): virtual-lab training with measurable outcomes.

Paper target: "educational infrastructure including immersive virtual
laboratory environments ... and assessment methodologies for human-AI
collaboration competencies with measurable learning outcomes".

A trainee cohort completes the virtual-lab curriculum; a control cohort
does not.  Both sit the same scenario-based human-AI collaboration
assessment.  We report competency growth, assessment accuracy/pass rate,
and the trust-calibration improvement of trained operators supervising a
(deliberately imperfect) autonomous system.
"""

import numpy as np

from benchmarks.conftest import fmt, report
from repro.hitl import (CompetencyAssessment, Trainee, TrustModel,
                        VirtualLabCurriculum)
from repro.hitl.assessment import standard_battery
from repro.sim import RngRegistry, Simulator

COHORT = 12


def _train_cohort():
    """Two semesters through the virtual lab (repetition has diminishing
    returns built into the modules, so this is not double-counting)."""
    sim = Simulator()
    rngs = RngRegistry(17)
    curriculum = VirtualLabCurriculum(sim, rngs.stream("edu"))
    cohort = [Trainee(f"trained-{i}") for i in range(COHORT)]
    out = {}

    def go():
        yield from curriculum.train_cohort(cohort)
        out["cohort"] = yield from curriculum.train_cohort(cohort)

    proc = sim.process(go())
    sim.run(until=proc)
    return out["cohort"], sim.now


def _trust_calibration(trainee: Trainee, rng) -> float:
    """Final calibration error supervising an 85%-reliable system.

    Trained operators weigh evidence better: their effective update is
    closer to the ideal observer's.
    """
    skill = trainee.competencies["ai-collaboration"]
    trust = TrustModel(initial=0.5,
                       gain_success=0.01 + 0.04 * skill,
                       loss_failure=0.20 - 0.12 * skill)
    for _ in range(120):
        trust.observe(bool(rng.random() < 0.85))
    return trust.calibration_error


def test_e13_education(bench_once):
    def scenario():
        trained, train_time = _train_cohort()
        control = [Trainee(f"control-{i}") for i in range(COHORT)]
        rng = np.random.default_rng(5)
        assessment = CompetencyAssessment(
            rng, scenarios=standard_battery(rng, n=60))
        reports = {
            "trained": [assessment.administer(t) for t in trained],
            "control": [assessment.administer(t) for t in control],
        }
        summaries = {k: assessment.cohort_summary(v)
                     for k, v in reports.items()}
        calibration = {
            "trained": float(np.mean([_trust_calibration(t, rng)
                                      for t in trained])),
            "control": float(np.mean([_trust_calibration(t, rng)
                                      for t in control])),
        }
        growth = float(np.mean([t.overall() for t in trained]))
        return summaries, calibration, growth, train_time

    summaries, calibration, growth, train_time = bench_once(scenario)
    rows = []
    for cohort in ("control", "trained"):
        s = summaries[cohort]
        rows.append([cohort, fmt(s["mean_accuracy"], 3),
                     fmt(s["pass_rate"], 2), fmt(s["mean_over_trust"], 2),
                     fmt(s["mean_under_trust"], 2),
                     fmt(calibration[cohort], 3)])
    report(
        "E13: human-AI collaboration competency, trained vs control "
        "(M14: measurable learning outcomes)",
        ["cohort", "assessment accuracy", "pass rate", "over-trust",
         "under-trust", "trust calib. error"],
        rows)
    print(f"mean competency after curriculum: {growth:.2f} "
          f"(started at 0.10); training time "
          f"{train_time / 3600.0:.0f} h simulated")

    trained, control = summaries["trained"], summaries["control"]
    assert trained["mean_accuracy"] > control["mean_accuracy"] + 0.15
    assert trained["pass_rate"] >= 0.75
    assert trained["mean_over_trust"] < control["mean_over_trust"]
    assert calibration["trained"] < calibration["control"]
    assert growth > 0.4
