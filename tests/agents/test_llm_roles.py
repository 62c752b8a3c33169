"""Tests for the simulated LLM and the planner/executor/evaluator trio."""

import numpy as np
import pytest

from repro.agents import (EvaluatorAgent, ExecutorAgent, PlannerAgent,
                          SimulatedLLM)
from repro.agents.planner import ExperimentPlan
from repro.instruments import (FluidicReactor, HardwareAbstractionLayer,
                               PLSpectrometer, make_vendor_protocol)
from repro.methods import BayesianOptimizer, NestedBayesianOptimizer


def run(sim, gen):
    out = {}

    def proc():
        out["r"] = yield from gen
    sim.process(proc())
    sim.run()
    return out["r"]


@pytest.fixture
def llm(sim, rngs):
    return SimulatedLLM(sim, rngs.stream("llm"), hallucination_rate=0.3)


# -- simulated LLM ------------------------------------------------------------

def test_llm_charges_latency_and_tokens(sim, llm, qd_landscape):
    resp = run(sim, llm.propose_parameters(qd_landscape.space, []))
    assert 0.8 <= resp.latency_s <= 3.0
    assert sim.now == pytest.approx(resp.latency_s)
    assert resp.tokens > 0
    assert llm.stats["calls"] == 1


def test_llm_hallucination_rate_approximate(sim, rngs, qd_landscape):
    llm = SimulatedLLM(sim, rngs.stream("llm2"), hallucination_rate=0.4)
    n = 200
    grounded = []

    def proc():
        for _ in range(n):
            r = yield from llm.propose_parameters(qd_landscape.space, [])
            grounded.append(r.grounded)

    sim.process(proc())
    sim.run()
    rate = 1.0 - sum(grounded) / n
    assert rate == pytest.approx(0.4, abs=0.1)
    assert llm.stats["hallucinations"] == n - sum(grounded)


def test_llm_zero_hallucination_always_grounded(sim, rngs, qd_landscape):
    llm = SimulatedLLM(sim, rngs.stream("llm3"), hallucination_rate=0.0)

    def proc():
        for _ in range(30):
            r = yield from llm.propose_parameters(qd_landscape.space, [])
            assert r.grounded
            assert qd_landscape.space.contains(r.content["params"])

    sim.process(proc())
    sim.run()


def test_llm_grounded_proposal_perturbs_best(sim, rngs, qd_landscape):
    llm = SimulatedLLM(sim, rngs.stream("llm4"), hallucination_rate=0.0)
    best = qd_landscape.space.sample(np.random.default_rng(0))
    history = [(best, 0.9), (qd_landscape.space.sample(
        np.random.default_rng(1)), 0.1)]
    resp = run(sim, llm.propose_parameters(qd_landscape.space, history))
    # Discrete choices inherited from the incumbent recipe.
    assert resp.content["params"]["dopant"] == best["dopant"]


def test_llm_hallucinations_are_detectably_wrong(sim, rngs, qd_landscape):
    llm = SimulatedLLM(sim, rngs.stream("llm5"), hallucination_rate=1.0)
    safety = {"temperature": (60.0, 200.0)}
    bad_somehow = 0
    n = 40

    def proc():
        nonlocal bad_somehow
        for _ in range(n):
            r = yield from llm.propose_parameters(
                qd_landscape.space, [], safety_envelope=safety)
            params = r.content["params"]
            unsafe = any(
                isinstance(v, (int, float)) and k in safety
                and not safety[k][0] <= v <= safety[k][1]
                for k, v in params.items())
            invalid = not qd_landscape.space.contains(params)
            absurd = r.content.get("expected", {}).get("objective", 0) > 1.0
            if unsafe or invalid or absurd:
                bad_somehow += 1

    sim.process(proc())
    sim.run()
    assert bad_somehow == n  # every hallucination is catchable in principle


def test_llm_tool_selection_mostly_right(sim, rngs):
    llm = SimulatedLLM(sim, rngs.stream("llm6"))
    llm.tool_error_rate = 0.05
    picks = []

    def proc():
        for _ in range(100):
            r = yield from llm.select_tool("goal", ["bo", "rs"], "bo")
            picks.append(r.content["tool"])

    sim.process(proc())
    sim.run()
    assert picks.count("bo") >= 90


def test_llm_validation():
    import numpy as np
    from repro.sim import Simulator
    with pytest.raises(ValueError):
        SimulatedLLM(Simulator(), np.random.default_rng(0),
                     hallucination_rate=1.5)


# -- planner/executor/evaluator --------------------------------------------------------

@pytest.fixture
def trio(sim, rngs, qd_landscape):
    hal = HardwareAbstractionLayer()
    reactor = FluidicReactor(sim, "reactor", "site-0", rngs, qd_landscape)
    spec = PLSpectrometer(sim, "spec", "site-0", rngs, scan_time_s=5.0)
    hal.register(make_vendor_protocol(reactor, "kelvin-sci"))
    optimizer = NestedBayesianOptimizer(qd_landscape.space,
                                        rngs.stream("opt"))
    llm = SimulatedLLM(sim, rngs.stream("llm"), hallucination_rate=0.0)
    planner = PlannerAgent(sim, "planner", "site-0", optimizer, llm)
    executor = ExecutorAgent(sim, "executor", "site-0", hal, "reactor", spec,
                             objective_key="plqy")
    evaluator = EvaluatorAgent(sim, "evaluator", "site-0", planner)
    evaluator.target, evaluator.patience = 0.95, 5
    return planner, executor, evaluator


def test_planner_mode_validation(sim, rngs, qd_landscape):
    opt = BayesianOptimizer(qd_landscape.space, rngs.stream("o"))
    llm = SimulatedLLM(sim, rngs.stream("l"))
    with pytest.raises(ValueError):
        PlannerAgent(sim, "p", "site-0", opt, llm, mode="psychic")


def test_hierarchical_plan_comes_from_optimizer(sim, trio):
    planner, _, _ = trio
    plan = run(sim, planner.next_plan())
    assert plan.source == "optimizer"
    assert plan.grounded
    assert planner.optimizer.space.contains(plan.params)


def test_llm_direct_plan_pays_latency_each_time(sim, trio):
    planner, _, _ = trio
    planner.mode = "llm-direct"
    t0 = sim.now
    run(sim, planner.next_plan())
    assert sim.now - t0 >= 0.8


def test_executor_runs_valid_plan(sim, trio, qd_landscape):
    planner, executor, _ = trio
    params = qd_landscape.space.sample(np.random.default_rng(0))
    outcome = run(sim, executor.execute(ExperimentPlan(params=params)))
    assert outcome.valid
    assert outcome.objective is not None
    assert outcome.duration > 0
    assert outcome.measurement.kind == "pl-spectrum"


def test_executor_invalid_chemistry_yields_invalid_outcome(sim, trio,
                                                           qd_landscape):
    _, executor, _ = trio
    params = qd_landscape.space.sample(np.random.default_rng(0))
    params["dopant"] = "unobtainium-7"
    outcome = run(sim, executor.execute(ExperimentPlan(params=params)))
    assert not outcome.valid
    assert "unphysical" in outcome.failure
    assert executor.exec_stats["invalid"] == 1


def test_executor_interlock_rejection(sim, trio, qd_landscape):
    _, executor, _ = trio
    params = qd_landscape.space.sample(np.random.default_rng(0))
    params["temperature"] = 5000.0  # beyond reactor interlock
    outcome = run(sim, executor.execute(ExperimentPlan(params=params)))
    assert not outcome.valid
    assert "interlock" in outcome.failure or "unphysical" in outcome.failure


def test_evaluator_tracks_best_and_target(sim, trio, qd_landscape):
    planner, executor, evaluator = trio
    params = qd_landscape.space.sample(np.random.default_rng(0))
    outcome = run(sim, executor.execute(ExperimentPlan(params=params)))
    verdict = evaluator.evaluate(outcome)
    assert verdict["accepted"]
    assert evaluator.best_value == outcome.objective
    assert len(planner.optimizer.history) == 1


def test_evaluator_discards_invalid_without_poisoning_optimizer(sim, trio,
                                                                qd_landscape):
    planner, executor, evaluator = trio
    params = qd_landscape.space.sample(np.random.default_rng(0))
    params["dopant"] = "unobtainium-1"
    outcome = run(sim, executor.execute(ExperimentPlan(params=params)))
    verdict = evaluator.evaluate(outcome)
    assert not verdict["accepted"]
    assert len(planner.optimizer.history) == 0


def test_evaluator_convergence_patience(sim, trio, qd_landscape):
    planner, executor, evaluator = trio
    evaluator.patience = 3
    # Identical recipes differ only by measurement noise; don't let that
    # noise count as scientific progress.
    evaluator.min_improvement = 0.1
    params = qd_landscape.space.sample(np.random.default_rng(0))
    converged = []
    for _ in range(5):
        outcome = run(sim, executor.execute(ExperimentPlan(params=params)))
        # identical params: no improvement after the first
        converged.append(evaluator.evaluate(outcome)["converged"])
    assert converged[-1]
