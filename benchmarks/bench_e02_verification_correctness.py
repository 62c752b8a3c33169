"""E2 (milestone M8): experimental correctness with verification tools.

Paper target: ">95% experimental correctness versus agent usage without
verification tools".

An LLM-direct planner with a 30% hallucination rate drives campaigns with
four verification configurations (the DESIGN.md ablation): none,
physics-constraints only, digital-twin only, and the full stack.
Correctness = fraction of executed experiments that produced usable,
physically sensible data.
"""

from benchmarks.conftest import fmt, report
from repro.core import (CampaignSpec, FederationManager,
                        PhysicsConstraintVerifier, TwinVerifier,
                        VerificationStack)
from repro.labsci import QuantumDotLandscape

BUDGET = 40
SEEDS = (3, 17, 29)
HALLUCINATION = 0.3


def _stack_for(fed, lab, config: str):
    if config == "none":
        return None
    physics = PhysicsConstraintVerifier(
        lab.landscape.space, safety_envelope=lab.twin.safety_envelope,
        forbidden_combinations=lab.twin.forbidden_combinations,
        outcome_bounds={"objective": (0.0, 1.0)})
    twin = TwinVerifier(lab.twin, objective_key="plqy")
    verifiers = {"constraints": [physics], "twin": [twin],
                 "full": [physics, twin]}[config]
    return VerificationStack(fed.sim, verifiers)


def _run(config: str, seed: int):
    fed = FederationManager(seed=seed, n_sites=2, objective_key="plqy")
    lab = fed.add_lab("site-0", lambda s: QuantumDotLandscape(seed=7),
                      planner_mode="llm-direct",
                      hallucination_rate=HALLUCINATION)
    from repro.core.orchestrator import HierarchicalOrchestrator
    orch = HierarchicalOrchestrator(
        fed.sim, lab.planner, lab.executor, lab.evaluator,
        verification=_stack_for(fed, lab, config))
    spec = CampaignSpec(name=f"e2-{config}", objective_key="plqy",
                        max_experiments=BUDGET)
    proc = fed.sim.process(orch.run_campaign(spec))
    return fed.sim.run(until=proc)


def test_e02_verification_correctness(bench_once):
    configs = ("none", "constraints", "twin", "full")

    def scenario():
        out = {}
        for config in configs:
            runs = [_run(config, seed) for seed in SEEDS]
            out[config] = runs
        return out

    results = bench_once(scenario)
    rows = []
    correctness = {}
    for config in configs:
        runs = results[config]
        c = sum(r.correctness for r in runs) / len(runs)
        correctness[config] = c
        rejected = sum(r.counters.get("verification", {}).get("rejected", 0)
                       for r in runs)
        rows.append([config, fmt(c, 3), rejected,
                     fmt(sum(r.best_value or 0 for r in runs) / len(runs))])
    report(
        "E2: correctness vs verification config (M8 target: >95% with "
        "verification; hallucination rate 30%)",
        ["verification", "correctness", "plans rejected", "mean best"],
        rows)

    assert correctness["full"] >= 0.95, \
        f"full stack correctness {correctness['full']:.3f} < 0.95 (M8)"
    assert correctness["none"] < correctness["full"]
    # Each partial stack helps over nothing.
    assert correctness["constraints"] >= correctness["none"]
    assert correctness["twin"] >= correctness["none"]
