"""Tests for trust, override, curriculum, and assessment."""

import numpy as np
import pytest

from repro.agents.planner import ExperimentPlan
from repro.hitl import (COMPETENCIES, CompetencyAssessment, OperatorOverride,
                        Trainee, TrustModel, VirtualLabCurriculum)
from repro.hitl.assessment import standard_battery
from repro.hitl.curriculum import TrainingModule


# -- trust --------------------------------------------------------------------

def test_trust_bounds_and_validation():
    with pytest.raises(ValueError):
        TrustModel(initial=1.5)
    t = TrustModel(initial=0.99, gain_success=0.5)
    for _ in range(20):
        t.observe(True)
    assert t.trust <= 1.0
    t2 = TrustModel(initial=0.01, loss_failure=0.9)
    for _ in range(20):
        t2.observe(False)
    assert t2.trust >= 0.0


def test_trust_failure_asymmetry():
    t = TrustModel(initial=0.5)
    t.observe(True)
    up = t.trust - 0.5
    t2 = TrustModel(initial=0.5)
    t2.observe(False)
    down = 0.5 - t2.trust
    assert down > up  # failures hit harder


def test_trust_converges_toward_reliability():
    rng = np.random.default_rng(0)
    t = TrustModel(initial=0.5)
    for _ in range(500):
        t.observe(bool(rng.random() < 0.9))
    assert t.calibration_error < 0.2
    assert not t.under_trusting or not t.over_trusting


def test_trust_vigilance_decreases_with_trust():
    low = TrustModel(initial=0.1)
    high = TrustModel(initial=0.9)
    assert low.vigilance() > high.vigilance()


def test_over_under_trust_flags():
    t = TrustModel(initial=0.95)
    for _ in range(30):
        t.observe(False)
    # observed reliability 0 but trust decayed; eventually calibrated
    assert t.observed_reliability == 0.0
    t2 = TrustModel(initial=0.05, gain_success=0.001)
    for _ in range(30):
        t2.observe(True)
    assert t2.under_trusting


# -- operator override ----------------------------------------------------------------

def unsafe_plan(qd_landscape):
    p = qd_landscape.space.sample(np.random.default_rng(0))
    p["temperature"] = 219.0  # within space, outside operator envelope
    return ExperimentPlan(params=p)


def safe_plan(qd_landscape):
    p = qd_landscape.space.sample(np.random.default_rng(0))
    p["temperature"] = 120.0
    return ExperimentPlan(params=p)


def run(sim, gen):
    out = {}

    def proc():
        out["r"] = yield from gen
    sim.process(proc())
    sim.run()
    return out["r"]


def test_vigilant_operator_vetoes_unsafe(sim, rngs, qd_landscape):
    op = OperatorOverride(sim, rngs.stream("op"),
                          trust=TrustModel(initial=0.0),  # max vigilance
                          safety_envelope={"temperature": (60.0, 200.0)},
                          detection_skill=1.0, review_time_s=10.0)
    reasons = run(sim, op.validate(unsafe_plan(qd_landscape)))
    assert reasons and "veto" in reasons[0]
    assert sim.now == pytest.approx(10.0)
    assert op.veto_rate == 1.0


def test_operator_passes_safe_plan(sim, rngs, qd_landscape):
    op = OperatorOverride(sim, rngs.stream("op"),
                          trust=TrustModel(initial=0.0),
                          safety_envelope={"temperature": (60.0, 200.0)},
                          detection_skill=1.0)
    reasons = run(sim, op.validate(safe_plan(qd_landscape)))
    assert reasons == []


def test_complacent_operator_misses_unsafe(sim, rngs, qd_landscape):
    op = OperatorOverride(sim, rngs.stream("op2"),
                          trust=TrustModel(initial=1.0),  # min vigilance
                          safety_envelope={"temperature": (60.0, 200.0)},
                          detection_skill=1.0)
    missed = 0
    for i in range(50):
        reasons = run(sim, op.validate(unsafe_plan(qd_landscape)))
        if not reasons:
            missed += 1
    assert missed > 25  # complacency lets most through
    assert op.stats["missed_unsafe"] == missed


def test_operator_composes_with_verification_stack(sim, rngs, qd_landscape):
    from repro.core import VerificationStack
    op = OperatorOverride(sim, rngs.stream("op3"),
                          trust=TrustModel(initial=0.0),
                          safety_envelope={"temperature": (60.0, 200.0)},
                          detection_skill=1.0)
    stack = VerificationStack(sim, [op])
    result = run(sim, stack.verify(unsafe_plan(qd_landscape)))
    assert not result.ok


def test_operator_trust_feedback(sim, rngs, qd_landscape):
    op = OperatorOverride(sim, rngs.stream("op4"))
    before = op.trust.trust
    for _ in range(10):
        op.observe_outcome(False)
    assert op.trust.trust < before


# -- curriculum -----------------------------------------------------------------------

def test_trainee_defaults():
    t = Trainee("alice")
    assert set(t.competencies) == set(COMPETENCIES)
    assert t.overall() == pytest.approx(0.1)


def test_module_diminishing_returns():
    rng = np.random.default_rng(0)
    m = TrainingModule("m", 3600.0, {"data-literacy": 0.3})
    novice = Trainee("novice")
    expert = Trainee("expert",
                     competencies={"data-literacy": 0.9})
    g1 = m.apply(novice, rng)
    g2 = m.apply(expert, rng)
    assert g1 > g2


def test_curriculum_improves_cohort(sim, rngs):
    cur = VirtualLabCurriculum(sim, rngs.stream("edu"))
    cohort = [Trainee(f"t{i}") for i in range(6)]
    out = {}

    def proc():
        out["cohort"] = yield from cur.train_cohort(cohort)

    sim.process(proc())
    sim.run()
    for t in out["cohort"]:
        assert t.overall() > 0.25
        assert len(t.modules_completed) >= 3
        # trajectory is monotone non-decreasing
        values = [v for _, v in t.trajectory]
        assert values == sorted(values)
    assert sim.now > 0


def test_prerequisites_gate_modules(sim, rngs):
    modules = [TrainingModule("advanced", 3600.0,
                              {"ai-collaboration": 0.5},
                              prerequisites={"ai-collaboration": 0.9})]
    cur = VirtualLabCurriculum(sim, rngs.stream("edu"))
    cur.modules = modules
    t = Trainee("newbie")
    out = {}

    def proc():
        out["t"] = yield from cur.train(t)

    sim.process(proc())
    sim.run()
    assert t.modules_completed == []
    assert any("skipped:advanced" in e for _, _, e in cur.log)


# -- assessment ---------------------------------------------------------------------------

def test_assessment_trained_beats_untrained(sim, rngs):
    rng = rngs.stream("assess")
    battery = standard_battery(rng, n=60)
    assessment = CompetencyAssessment(rng, scenarios=battery)
    untrained = Trainee("untrained")
    trained = Trainee("trained", competencies={
        c: 0.9 for c in COMPETENCIES})
    r_un = assessment.administer(untrained)
    r_tr = assessment.administer(trained)
    assert r_tr.accuracy > r_un.accuracy
    assert r_tr.passed()
    assert not r_un.passed()


def test_assessment_rates_sum_sensibly(rngs):
    rng = rngs.stream("assess2")
    assessment = CompetencyAssessment(rng)
    report = assessment.administer(Trainee("x"))
    assert 0.0 <= report.over_trust_rate <= 1.0
    assert 0.0 <= report.under_trust_rate <= 1.0
    assert 0.0 <= report.accuracy <= 1.0


def test_cohort_summary(rngs):
    rng = rngs.stream("assess3")
    assessment = CompetencyAssessment(rng)
    reports = [assessment.administer(Trainee(f"t{i}",
                                             competencies={c: 0.7 for c in
                                                           COMPETENCIES}))
               for i in range(5)]
    summary = assessment.cohort_summary(reports)
    assert 0.0 <= summary["mean_accuracy"] <= 1.0
    assert summary["pass_rate"] >= 0.0
    assert assessment.cohort_summary([]) == {
        "mean_accuracy": 0.0, "pass_rate": 0.0, "mean_over_trust": 0.0,
        "mean_under_trust": 0.0}
