"""Regression tests for failure modes found during benchmark bring-up.

Each test pins a bug that once existed:

1. verification stalemate — an optimizer pinned against a region the
   verifier forbids used to spin the campaign loop forever;
2. repair diversification — repairs of rejected *optimizer* plans used to
   re-ask for the same point;
3. safety-clipped search spaces — the federation builder used to hand
   optimizers the full space, proposing into the unsafe band;
4. failover probe deadlines — aggressive heartbeat cadences used to
   declare healthy primaries dead because the probe deadline was shorter
   than the WAN round trip.
"""

import numpy as np

from repro.agents import PlannerAgent, SimulatedLLM
from repro.agents.planner import ExperimentPlan
from repro.core import CampaignSpec, FederationManager, VerificationStack
from repro.core.federation import (DEFAULT_SAFETY_ENVELOPE,
                                   clip_space_to_envelope)
from repro.core.orchestrator import HierarchicalOrchestrator
from repro.labsci import QuantumDotLandscape


def test_clip_space_to_envelope_intersects_bounds(qd_landscape):
    safe = clip_space_to_envelope(qd_landscape.space,
                                  {"temperature": (0.0, 205.0)})
    t = safe.dim("temperature")
    assert t.low == 60.0   # space bound tighter than envelope low
    assert t.high == 205.0  # envelope tighter than space high
    # Other dims untouched; discrete dims pass through.
    assert safe.dim("dopant") is qd_landscape.space.dim("dopant")
    # Samples from the clipped space are valid in the original space.
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert qd_landscape.space.contains(safe.sample(rng))


def test_federation_optimizer_searches_safe_space():
    fed = FederationManager(seed=1, n_sites=2)
    lab = fed.add_lab("site-0", lambda s: QuantumDotLandscape(seed=7))
    t = lab.optimizer.space.dim("temperature")
    assert t.high == DEFAULT_SAFETY_ENVELOPE["temperature"][1]


def test_campaign_stops_on_verification_stalemate():
    """A verifier that rejects everything must end the campaign, not hang."""
    fed = FederationManager(seed=2, n_sites=2)
    lab = fed.add_lab("site-0", lambda s: QuantumDotLandscape(seed=7))

    class RejectEverything:
        name = "reject-everything"

        def check(self, plan):
            return ["nope"]

    stack = VerificationStack(fed.sim, [RejectEverything()])
    orch = HierarchicalOrchestrator(fed.sim, lab.planner, lab.executor,
                                    lab.evaluator, verification=stack)
    spec = CampaignSpec(name="stalemate", objective_key="plqy",
                        max_experiments=50)
    proc = fed.sim.process(orch.run_campaign(spec))
    result = fed.sim.run(until=proc)
    assert result.stop_reason == "verification-stalemate"
    assert result.n_experiments == 0
    assert result.counters["skipped_plans"] == 25


def test_repair_of_optimizer_plan_diversifies(sim, rngs, qd_landscape):
    from repro.methods import NestedBayesianOptimizer
    optimizer = NestedBayesianOptimizer(qd_landscape.space,
                                        rngs.stream("opt"))
    llm = SimulatedLLM(sim, rngs.stream("llm"), hallucination_rate=0.0)
    planner = PlannerAgent(sim, "p", "site-0", optimizer, llm)
    rejected = ExperimentPlan(
        params=qd_landscape.space.sample(np.random.default_rng(0)),
        source="optimizer")
    out = {}

    def proc():
        out["repair"] = yield from planner.repair_plan(rejected)

    sim.process(proc())
    sim.run()
    # The repair did not re-ask the optimizer (which would return the
    # same pinned acquisition argmax); it sampled fresh.
    assert out["repair"].params != rejected.params
    assert out["repair"].repaired
    assert qd_landscape.space.contains(out["repair"].params)


def test_repair_of_llm_plan_uses_optimizer(sim, rngs, qd_landscape):
    from repro.methods import NestedBayesianOptimizer
    optimizer = NestedBayesianOptimizer(qd_landscape.space,
                                        rngs.stream("opt"))
    llm = SimulatedLLM(sim, rngs.stream("llm"))
    planner = PlannerAgent(sim, "p", "site-0", optimizer, llm,
                           mode="llm-direct")
    rejected = ExperimentPlan(params={}, source="llm")
    out = {}

    def proc():
        out["repair"] = yield from planner.repair_plan(rejected)

    sim.process(proc())
    sim.run()
    assert out["repair"].source == "optimizer-repair"
    assert qd_landscape.space.contains(out["repair"].params)


def test_failover_probe_deadline_survives_aggressive_heartbeat(
        sim, testbed_network):
    """A healthy primary over a ~45 ms WAN must not be declared dead at a
    50 ms heartbeat cadence."""
    from repro.comm import FailoverGroup, RpcClient, RpcServer
    replicas = []
    for i in range(2):
        srv = RpcServer(sim, f"r{i}", site=f"site-{i + 1}")
        FailoverGroup.install_health_endpoint(srv)
        replicas.append(srv)
    group = FailoverGroup(sim, replicas, heartbeat_interval_s=0.05,
                          heartbeat_misses=2)
    client = RpcClient(sim, testbed_network, site="site-0")
    group.start_monitor(client)
    sim.run(until=10.0)
    assert group.primary.name == "r0"  # never spuriously promoted
    assert not any(kind == "promote" for _, kind, _ in group.events)


def test_verified_campaign_with_default_wiring_never_stalls():
    """End-to-end guard: the standard federation wiring completes a
    verified campaign within a bounded number of planner invocations."""
    fed = FederationManager(seed=5, n_sites=2)
    lab = fed.add_lab("site-0", lambda s: QuantumDotLandscape(seed=7))
    orch = fed.make_orchestrator(lab, verified=True)
    spec = CampaignSpec(name="guard", objective_key="plqy",
                        max_experiments=25)
    proc = fed.sim.process(orch.run_campaign(spec))
    result = fed.sim.run(until=proc)
    assert result.n_experiments == 25
    assert result.counters["plans"]["plans"] < 25 * 4
