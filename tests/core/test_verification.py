"""Tests for the verification stack."""

import numpy as np
import pytest

from repro.agents.planner import ExperimentPlan
from repro.core import (PhysicsConstraintVerifier, TwinVerifier,
                        VerificationStack)
from repro.instruments import DigitalTwin, FluidicReactor


@pytest.fixture
def physics(qd_landscape):
    return PhysicsConstraintVerifier(
        qd_landscape.space,
        safety_envelope={"temperature": (60.0, 200.0)},
        forbidden_combinations=[{"solvent": "DMF",
                                 "temperature": (160.0, None)}],
        outcome_bounds={"objective": (0.0, 1.0)})


def plan(params, expected=None):
    return ExperimentPlan(params=dict(params), expected=dict(expected or {}))


def good_params(qd_landscape, seed=0):
    p = qd_landscape.space.sample(np.random.default_rng(seed))
    p["temperature"] = 150.0
    p["solvent"] = "octadecene"
    return p


def test_physics_accepts_good_plan(physics, qd_landscape):
    assert physics.check(plan(good_params(qd_landscape))) == []


def test_physics_rejects_invalid_space(physics, qd_landscape):
    p = good_params(qd_landscape)
    p["dopant"] = "unobtainium-1"
    reasons = physics.check(plan(p))
    assert any("invalid parameters" in r for r in reasons)


def test_physics_rejects_unsafe_envelope(physics, qd_landscape):
    p = good_params(qd_landscape)
    p["temperature"] = 215.0  # valid for the space, unsafe per envelope
    reasons = physics.check(plan(p))
    assert any("safe envelope" in r for r in reasons)


def test_physics_rejects_forbidden_combo(physics, qd_landscape):
    p = good_params(qd_landscape)
    p["solvent"] = "DMF"
    p["temperature"] = 180.0
    reasons = physics.check(plan(p))
    assert any("forbidden" in r for r in reasons)


def test_physics_rejects_impossible_claim(physics, qd_landscape):
    reasons = physics.check(plan(good_params(qd_landscape),
                                 expected={"objective": 50.0}))
    assert any("physically impossible" in r for r in reasons)
    assert physics.stats["rejections"] == 1


# -- twin verifier ------------------------------------------------------------------

@pytest.fixture
def twin_verifier(sim, rngs, qd_landscape):
    reactor = FluidicReactor(sim, "r", "site-0", rngs, qd_landscape)
    twin = DigitalTwin(reactor, landscape=qd_landscape, rngs=rngs,
                       safety_envelope={"temperature": (60.0, 200.0)})
    return TwinVerifier(twin, objective_key="plqy")


def run(sim, gen):
    out = {}

    def proc():
        out["r"] = yield from gen
    sim.process(proc())
    sim.run()
    return out["r"]


def test_twin_verifier_passes_honest_plan(sim, twin_verifier, qd_landscape):
    p = good_params(qd_landscape)
    honest = qd_landscape.evaluate(p)["plqy"]
    reasons = run(sim, twin_verifier.validate(
        plan(p, expected={"objective": honest})))
    assert reasons == []
    assert sim.now == pytest.approx(2.0)


def test_twin_verifier_rejects_wild_claim(sim, twin_verifier, qd_landscape):
    p = good_params(qd_landscape)
    reasons = run(sim, twin_verifier.validate(
        plan(p, expected={"objective": 0.99})))
    # A random recipe almost never hits 0.99 PLQY; the twin disagrees.
    truth = qd_landscape.evaluate(p)["plqy"]
    if truth < 0.4:
        assert reasons
        assert twin_verifier.stats["rejections"] == 1


# -- the stack ----------------------------------------------------------------------------

def test_stack_short_circuits_cheap_first(sim, physics, twin_verifier,
                                          qd_landscape):
    stack = VerificationStack(sim, [physics, twin_verifier])
    p = good_params(qd_landscape)
    p["temperature"] = 500.0  # caught by physics instantly
    result = run(sim, stack.verify(plan(p)))
    assert not result.ok
    assert result.checked_by == ["physics-constraints"]
    assert result.time_spent == 0.0  # twin never consulted
    assert stack.rejection_rate == 1.0


def test_stack_passes_good_plan_through_both(sim, physics, twin_verifier,
                                             qd_landscape):
    stack = VerificationStack(sim, [physics, twin_verifier])
    p = good_params(qd_landscape)
    result = run(sim, stack.verify(plan(p)))
    assert result.ok
    assert "digital-twin" in result.checked_by
    assert result.time_spent == pytest.approx(2.0)


def test_stack_marks_plan_verified(sim, physics, qd_landscape):
    stack = VerificationStack(sim, [physics])
    pl = plan(good_params(qd_landscape))
    result = run(sim, stack.verify(pl))
    assert result.ok and pl.verified
