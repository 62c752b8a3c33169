"""Integration tests: campaign loop, manual baseline, fault tolerance,
federation builder, and the campaign/metrics accounting."""

import pytest

from repro.core import (CampaignResult, CampaignSpec, ExperimentRecord,
                        FederationManager, speedup)
from repro.core.metrics import reduction_fraction, speedup
from repro.labsci import QuantumDotLandscape


def qd_factory(seed=3):
    return lambda site: QuantumDotLandscape(seed=seed)


def run_campaign(fed, orchestrator, spec):
    proc = fed.sim.process(orchestrator.run_campaign(spec))
    return fed.sim.run(until=proc)


# -- campaign spec/result ----------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        CampaignSpec(name="x", objective_key="plqy", max_experiments=0)


def test_result_correctness_and_trajectory():
    spec = CampaignSpec(name="x", objective_key="plqy", max_experiments=5)
    result = CampaignResult(spec=spec)
    for i, (valid, obj) in enumerate([(True, 0.2), (False, None),
                                      (True, 0.5), (True, 0.3)]):
        result.records.append(ExperimentRecord(
            index=i, params={}, valid=valid, objective=obj, source="t",
            started=0.0, finished=1.0))
    assert result.correctness == 0.75
    assert result.best_trajectory() == [0.2, 0.2, 0.5, 0.5]
    assert result.n_valid == 3


def test_empty_result_correctness_is_one():
    spec = CampaignSpec(name="x", objective_key="plqy")
    assert CampaignResult(spec=spec).correctness == 1.0


# -- metrics ----------------------------------------------------------------------

def make_result(objectives, dt=10.0):
    spec = CampaignSpec(name="m", objective_key="o",
                        max_experiments=len(objectives))
    result = CampaignResult(spec=spec, started=0.0)
    t = 0.0
    for i, obj in enumerate(objectives):
        t += dt
        result.records.append(ExperimentRecord(
            index=i, params={}, valid=obj is not None, objective=obj,
            source="t", started=t - dt, finished=t))
    result.finished = t
    return result


def test_time_and_experiments_to_target():
    r = make_result([0.1, 0.3, 0.6, 0.9])
    hit = r.report(target=0.5)
    assert hit.time_to_target == pytest.approx(30.0)
    assert hit.experiments_to_target == 3
    miss = r.report(target=0.95)
    assert miss.time_to_target is None
    assert miss.experiments_to_target is None


def test_invalid_records_do_not_count_toward_target():
    r = make_result([0.1, None, 0.6])
    assert r.report(target=0.5).experiments_to_target == 3


def test_speedup_and_reduction():
    assert speedup(300.0, 100.0) == pytest.approx(3.0)
    assert speedup(None, 100.0) is None
    assert speedup(100.0, None) is None
    assert reduction_fraction(100.0, 60.0) == pytest.approx(0.4)
    assert reduction_fraction(None, 60.0) is None


def test_campaign_metrics_from_result():
    r = make_result([0.1, 0.3, 0.6, 0.9])
    m = r.report(target=0.5)
    assert m.time_to_target == pytest.approx(30.0)
    assert m.experiments_to_target == 3
    assert m.duration == r.duration
    assert m.n_experiments == 4
    assert m.best_value == r.best_value
    assert m.target == 0.5
    dnf = r.report(target=0.95)
    assert dnf.time_to_target is None and dnf.experiments_to_target is None


def test_campaign_metrics_target_defaults_to_spec():
    r = make_result([0.1, 0.9])
    r.spec = CampaignSpec(name="m", objective_key="o", target=0.5,
                          max_experiments=2)
    m = r.report()
    assert m.target == 0.5 and m.experiments_to_target == 2


def test_campaign_metrics_comparisons():
    slow = make_result([0.1, 0.2, 0.3, 0.6]).report(target=0.5)
    fast = make_result([0.6]).report(target=0.5)
    assert speedup(slow.time_to_target, fast.time_to_target) \
        == pytest.approx(4.0)
    assert reduction_fraction(slow.experiments_to_target,
                              fast.experiments_to_target) \
        == pytest.approx(0.75)
    # Raw-number baselines and DNF propagation.
    assert speedup(20.0, fast.time_to_target) == pytest.approx(2.0)
    dnf = make_result([0.1]).report(target=0.5)
    assert speedup(slow.time_to_target, dnf.time_to_target) is None
    assert speedup(dnf.time_to_target, fast.time_to_target) is None
    assert reduction_fraction(None, fast.experiments_to_target) is None


# -- the hierarchical loop ---------------------------------------------------------------

def test_campaign_reaches_budget_and_accounts(qd_landscape):
    fed = FederationManager(seed=5, n_sites=2)
    lab = fed.add_lab("site-0", qd_factory())
    orch = fed.make_orchestrator(lab, verified=True)
    spec = CampaignSpec(name="t", objective_key="plqy", max_experiments=15)
    result = run_campaign(fed, orch, spec)
    assert result.n_experiments == 15
    assert result.stop_reason == "budget-exhausted"
    assert result.correctness == 1.0
    assert result.best_value is not None
    assert result.counters["verification"]["plans"] >= 15
    assert result.duration > 0
    # The emitted campaign counters are part of the observability
    # contract (rule C002): every executed experiment lands in
    # campaign.experiments, and nothing was skipped on the happy path.
    assert fed.metrics.counter("campaign.experiments",
                               site="site-0").value == 15
    assert fed.metrics.counter("campaign.skipped_plans",
                               site="site-0").value == 0


def test_campaign_stops_at_target():
    fed = FederationManager(seed=5, n_sites=2)
    lab = fed.add_lab("site-0", qd_factory())
    orch = fed.make_orchestrator(lab, verified=False)
    # Trivially low target: first valid experiment should end it.
    spec = CampaignSpec(name="t", objective_key="plqy",
                        max_experiments=50, target=0.001)
    lab.evaluator.target = 0.001
    result = run_campaign(fed, orch, spec)
    assert result.stop_reason == "target-reached"
    assert result.n_experiments < 50


def test_campaign_converges_with_patience():
    fed = FederationManager(seed=5, n_sites=2)
    lab = fed.add_lab("site-0", qd_factory())
    lab.evaluator.patience = 3
    lab.evaluator.min_improvement = 2.0  # unattainable improvement
    orch = fed.make_orchestrator(lab, verified=False)
    spec = CampaignSpec(name="t", objective_key="plqy", max_experiments=50,
                        patience=3)
    result = run_campaign(fed, orch, spec)
    assert result.stop_reason == "converged"
    assert result.n_experiments <= 10


def test_unverified_llm_direct_executes_garbage():
    fed = FederationManager(seed=11, n_sites=2)
    lab = fed.add_lab("site-0", qd_factory(), planner_mode="llm-direct",
                      hallucination_rate=0.5)
    orch = fed.make_orchestrator(lab, verified=False)
    spec = CampaignSpec(name="t", objective_key="plqy", max_experiments=30)
    result = run_campaign(fed, orch, spec)
    assert result.correctness < 1.0  # hallucinations executed


def test_verified_llm_direct_is_correct():
    fed = FederationManager(seed=11, n_sites=2)
    lab = fed.add_lab("site-0", qd_factory(), planner_mode="llm-direct",
                      hallucination_rate=0.5)
    orch = fed.make_orchestrator(lab, verified=True)
    spec = CampaignSpec(name="t", objective_key="plqy", max_experiments=30)
    result = run_campaign(fed, orch, spec)
    assert result.correctness >= 0.95  # M8's target
    assert result.counters["verification"]["rejected"] > 0


def test_campaign_with_mesh_builds_provenance():
    fed = FederationManager(seed=5, n_sites=2, with_mesh=True)
    lab = fed.add_lab("site-0", qd_factory())
    orch = fed.make_orchestrator(lab, verified=False)
    spec = CampaignSpec(name="t", objective_key="plqy", max_experiments=8)
    result = run_campaign(fed, orch, spec)
    node = lab.mesh_node
    assert len(node) == result.n_valid
    rec = node.local_records()[0]
    assert node.provenance.completeness(rec.record_id) >= 0.75
    assert lab.planner.name in node.provenance.responsible_agents(
        rec.record_id)
    # FAIR governor did its job on ingest.
    assert rec.license


# -- manual baseline -----------------------------------------------------------------------

def test_manual_orchestrator_much_slower():
    fed = FederationManager(seed=7, n_sites=2)
    lab = fed.add_lab("site-0", qd_factory())
    manual = fed.make_manual(lab, batch_size=4,
                             decision_delay_s=4 * 3600.0)
    spec = CampaignSpec(name="m", objective_key="plqy", max_experiments=12)
    result = run_campaign(fed, manual, spec)
    assert result.n_experiments == 12
    # 3 decision cycles of ~4h dominate the ~20 min of actual lab work.
    assert result.duration > 3 * 3600.0
    assert result.counters["planner_mode"] == "manual"


def test_manual_respects_working_hours():
    fed = FederationManager(seed=7, n_sites=2)
    lab = fed.add_lab("site-0", qd_factory())
    manual = fed.make_manual(lab, batch_size=2,
                             decision_delay_s=20 * 3600.0)
    # First decision lands ~20h in, i.e. outside the 9-17 window ->
    # pushed to next morning 9:00 or later.
    spec = CampaignSpec(name="m", objective_key="plqy", max_experiments=2)
    result = run_campaign(fed, manual, spec)
    first_start = result.records[0].started
    hour = (first_start % 86400.0) / 3600.0
    assert 9.0 <= hour <= 17.0


# -- fault tolerance ---------------------------------------------------------------------------

def test_fault_aborts_campaign_without_tolerance():
    fed = FederationManager(seed=3, n_sites=2)
    lab = fed.add_lab("site-0", qd_factory(), mtbf_hours=0.02,
                      repair_time_s=600.0)
    orch = fed.make_orchestrator(lab, verified=False, fault_tolerant=False)
    spec = CampaignSpec(name="f", objective_key="plqy", max_experiments=200)
    result = run_campaign(fed, orch, spec)
    assert result.stop_reason.startswith("instrument-fault")
    assert result.n_experiments < 200


def test_fault_tolerant_campaign_survives_faults():
    fed = FederationManager(seed=3, n_sites=2)
    lab = fed.add_lab("site-0", qd_factory(), mtbf_hours=0.3,
                      repair_time_s=600.0)
    orch = fed.make_orchestrator(lab, verified=False, fault_tolerant=True)
    spec = CampaignSpec(name="f", objective_key="plqy", max_experiments=40)
    result = run_campaign(fed, orch, spec)
    assert result.n_experiments == 40
    assert result.counters["fault_tolerance"]["faults_handled"] > 0
    assert result.counters["fault_tolerance"]["repairs"] > 0


def test_fault_tolerant_failover_to_alternate_site():
    fed = FederationManager(seed=3, n_sites=2)
    lab0 = fed.add_lab("site-0", qd_factory(), mtbf_hours=0.02,
                       repair_time_s=1e7)  # effectively unrepairable
    lab1 = fed.add_lab("site-1", qd_factory())
    orch = fed.make_orchestrator(lab0, verified=False, fault_tolerant=True,
                                 alternates=[lab1])
    spec = CampaignSpec(name="f", objective_key="plqy", max_experiments=25)
    result = run_campaign(fed, orch, spec)
    assert result.n_experiments == 25
    assert result.counters["fault_tolerance"]["failovers"] > 0


# -- federation builder -----------------------------------------------------------------------

def test_federation_builder_validation():
    fed = FederationManager(seed=1, n_sites=2)
    with pytest.raises(KeyError):
        fed.add_lab("nowhere", qd_factory())
    fed.add_lab("site-0", qd_factory())
    with pytest.raises(ValueError):
        fed.add_lab("site-0", qd_factory())
    with pytest.raises(ValueError):
        fed.add_lab("site-1", qd_factory(), synthesis_kind="teleporter")


def test_federation_registers_instruments():
    fed = FederationManager(seed=1, n_sites=3)
    fed.add_lab("site-0", qd_factory())
    fed.add_lab("site-1", qd_factory())
    records = fed.registry.lookup("_instrument._aisle")
    assert len(records) == 2


def test_ship_sample_takes_time():
    fed = FederationManager(seed=1, n_sites=2)
    lab = fed.add_lab("site-0", qd_factory())
    from repro.labsci import Sample
    import numpy as np
    sample = Sample.synthesize(
        lab.landscape.space.sample(np.random.default_rng(0)),
        lab.landscape, site="site-0")
    out = {}

    def proc():
        s = yield from fed.ship_sample(sample, "site-1")
        out["site"] = s.site

    fed.sim.process(proc())
    fed.sim.run()
    assert out["site"] == "site-1"
    assert fed.sim.now == pytest.approx(24 * 3600.0)
    assert any("shipped" in op for _, _, op in sample.provenance)


def test_secure_federation_wires_gateway():
    fed = FederationManager(seed=1, n_sites=2, secure=True, with_mesh=True)
    lab = fed.add_lab("site-0", qd_factory())
    assert fed.gateway is not None
    assert lab.mesh_node.gateway is fed.gateway
    # Tokens from one institution validate federation-wide.
    idp = fed.fabric.provider(lab.institution)
    token = idp.issue(f"agent@{lab.institution}")
    assert fed.fabric.validate_at("Lab 1", token)
