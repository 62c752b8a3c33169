"""F1 (Figure 1): the five-dimension architecture operating as one system.

The paper's only figure shows the five critical dimensions connected
through a distributed data fabric with intelligent agents.  This
benchmark runs one integrated scenario that exercises every dimension at
once and accounts for the activity in each:

1. instruments & CI — vendor-dialect instruments behind the HAL;
2. agent-driven data management — mesh ingest, FAIR governance,
   provenance;
3. AI-agent orchestration — LLM-orchestrated verified campaign;
4. interoperable communication — zero-trust verified discovery +
   knowledge propagation over the WAN;
5. education & workforce — a trained operator wired into the
   verification stack with override authority.
"""

import numpy as np

from benchmarks.conftest import report
from repro.core import CampaignSpec, FederationManager
from repro.hitl import OperatorOverride, Trainee, TrustModel
from repro.labsci import QuantumDotLandscape


def _scenario():
    fed = FederationManager(seed=19, n_sites=3, objective_key="plqy",
                            secure=True, with_mesh=True)
    labs = [fed.add_lab(f"site-{i}", lambda s: QuantumDotLandscape(seed=7),
                        vendor=v)
            for i, v in enumerate(("kelvin-sci", "helios"))]
    kb = fed.make_knowledge_base(policy="corrected")

    # Dimension 5: a trained operator joins site-0's verification stack.
    operator_trainee = Trainee("operator", competencies={
        "ai-collaboration": 0.8, "lab-safety": 0.9,
        "instrument-operation": 0.7, "data-literacy": 0.7,
        "workflow-thinking": 0.7})
    operator = OperatorOverride(
        fed.sim, fed.rngs.stream("operator"),
        trust=TrustModel(initial=0.5),
        safety_envelope={"temperature": (0.0, 205.0)},
        detection_skill=0.6 + 0.4 * operator_trainee.competencies[
            "lab-safety"],
        review_time_s=30.0)

    orchestrators = []
    for lab in labs:
        stack = fed.verification_stack(lab)
        if lab is labs[0]:
            stack.verifiers.append(operator)
        from repro.core.orchestrator import HierarchicalOrchestrator
        orchestrators.append(HierarchicalOrchestrator(
            fed.sim, lab.planner, lab.executor, lab.evaluator,
            verification=stack, knowledge=kb, mesh_node=lab.mesh_node))

    # Both campaigns go through the multi-tenant service front door: one
    # facility slot per site, one tenant per site, admission + fair-share
    # + canonical CampaignReport results (and the sites genuinely run
    # concurrently, sharing knowledge mid-campaign).
    from repro.service import CampaignService, FacilitySlot
    service = CampaignService(
        fed.sim, [FacilitySlot(lab.name, orch.run_campaign)
                  for orch, lab in zip(orchestrators, labs)])
    handles = []
    for lab in labs:
        service.register_tenant(lab.name)
        spec = CampaignSpec(name=f"f1-{lab.name}", objective_key="plqy",
                            max_experiments=25)
        handles.append(service.submit(lab.name, spec))
    fed.sim.run()
    fed.sim.run(until=fed.sim.now + 30.0)  # index replication drain
    results = [h.result() for h in handles]
    return fed, labs, kb, operator, results


def test_f01_architecture(bench_once):
    fed, labs, kb, operator, results = bench_once(_scenario)

    instruments_ops = sum(lab.synthesis.stats["operations"]
                          + lab.characterization.stats["operations"]
                          for lab in labs)
    hal_requests = sum(
        adapter.stats["requests"]
        for lab in labs for adapter in lab.hal._adapters.values())
    mesh_records = sum(len(lab.mesh_node) for lab in labs)
    fair_scores = [lab.mesh_node.mean_fair_score() for lab in labs]
    prov_nodes = sum(len(lab.mesh_node.provenance) for lab in labs)
    llm_calls = sum(r.counters["llm"]["calls"] for r in results)
    verified_plans = sum(r.counters["verification"]["plans"]
                         for r in results)
    zt_verifications = fed.gateway.stats["verified"] if fed.gateway else 0
    knowledge_flow = kb.stats["propagated"]

    rows = [
        ["1. instruments & CI",
         f"{instruments_ops} instrument ops via {hal_requests} HAL "
         f"requests across 2 vendor dialects"],
        ["2. data management",
         f"{mesh_records} records in the mesh, mean FAIR "
         f"{np.mean(fair_scores):.2f}, {prov_nodes} provenance nodes"],
        ["3. AI orchestration",
         f"{sum(r.n_experiments for r in results)} experiments, "
         f"{llm_calls} LLM calls, {verified_plans} plans verified"],
        ["4. communication",
         f"{knowledge_flow} knowledge donations propagated, "
         f"{zt_verifications} zero-trust verifications"],
        ["5. education & HITL",
         f"operator reviewed {operator.stats['reviewed']} plans, "
         f"vetoed {operator.stats['vetoed']}"],
    ]
    report("F1: five-dimension architecture, one integrated run",
           ["dimension", "activity"], rows)

    # Every dimension must actually have been exercised.
    assert instruments_ops > 0 and hal_requests > 0
    assert mesh_records > 0 and prov_nodes > 0
    assert float(np.mean(fair_scores)) > 0.6
    assert llm_calls > 0 and verified_plans > 0
    assert knowledge_flow > 0
    assert operator.stats["presented"] > 0
    for r in results:
        assert r.correctness == 1.0  # verified campaigns stay clean
