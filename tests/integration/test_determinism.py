"""The DESIGN.md determinism contract: same seed, same campaign,
event-for-event."""

from repro.core import CampaignSpec, FederationManager
from repro.labsci import QuantumDotLandscape


def _run(seed: int):
    fed = FederationManager(seed=seed, n_sites=3, objective_key="plqy")
    lab = fed.add_lab("site-0", lambda s: QuantumDotLandscape(seed=7),
                      planner_mode="llm-direct", hallucination_rate=0.3)
    kb = fed.make_knowledge_base(policy="corrected")
    orch = fed.make_orchestrator(lab, verified=True, knowledge=kb)
    spec = CampaignSpec(name="determinism", objective_key="plqy",
                        max_experiments=20)
    proc = fed.sim.process(orch.run_campaign(spec))
    result = fed.sim.run(until=proc)
    return result, fed.sim.now


def _fingerprint(result):
    return [
        (r.index, tuple(sorted((k, v) for k, v in r.params.items())),
         r.valid, r.objective, r.source, r.started, r.finished)
        for r in result.records
    ]


def test_same_seed_reproduces_campaign_exactly():
    r1, t1 = _run(seed=99)
    r2, t2 = _run(seed=99)
    assert t1 == t2
    assert r1.best_value == r2.best_value
    assert r1.counters == r2.counters
    assert _fingerprint(r1) == _fingerprint(r2)


def test_different_seed_diverges():
    r1, _ = _run(seed=99)
    r2, _ = _run(seed=100)
    assert _fingerprint(r1) != _fingerprint(r2)


def test_adding_unrelated_component_does_not_perturb_streams():
    """The RngRegistry name-keyed property, end to end: wiring an extra
    lab at another site must not change site-0's campaign."""
    def run(extra_lab: bool):
        fed = FederationManager(seed=7, n_sites=3, objective_key="plqy")
        lab = fed.add_lab("site-0", lambda s: QuantumDotLandscape(seed=7))
        if extra_lab:
            fed.add_lab("site-2", lambda s: QuantumDotLandscape(seed=7))
        orch = fed.make_orchestrator(lab, verified=True)
        spec = CampaignSpec(name="iso", objective_key="plqy",
                            max_experiments=12)
        proc = fed.sim.process(orch.run_campaign(spec))
        return fed.sim.run(until=proc)

    assert _fingerprint(run(False)) == _fingerprint(run(True))
