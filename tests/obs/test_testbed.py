"""Tests for the Testbed builder: equivalence with hand-wiring, toggles."""

import pytest

from repro import Testbed
from repro.core import CampaignSpec, FederationManager
from repro.labsci import QuantumDotLandscape


def _fingerprint(result):
    return [(r.index, r.valid, r.objective, r.started, r.finished, r.site)
            for r in result.records]


def test_testbed_matches_hand_wired_federation():
    spec = CampaignSpec(name="eq", objective_key="plqy", max_experiments=12)

    fed = FederationManager(seed=42, n_sites=2, objective_key="plqy")
    lab = fed.add_lab("site-0",
                      landscape_factory=lambda s: QuantumDotLandscape(seed=7),
                      synthesis_kind="flow", vendor="kelvin-sci")
    orch = fed.make_orchestrator(lab, verified=True)
    proc = fed.sim.process(orch.run_campaign(spec))
    by_hand = fed.sim.run(until=proc)

    built = (Testbed(seed=42)
             .site("site-0", landscape=lambda s: QuantumDotLandscape(seed=7))
             .with_instruments(synthesis="flow", vendor="kelvin-sci")
             .with_verification()
             .build())
    by_builder = built.run(spec, site="site-0")

    assert _fingerprint(by_builder) == _fingerprint(by_hand)
    assert by_builder.best_value == by_hand.best_value
    assert by_builder.stop_reason == by_hand.stop_reason


def test_builder_chains_site_and_federation_toggles():
    built = (Testbed(seed=1)
             .with_knowledge()       # testbed-level: before the first site
             .site("site-0", landscape=QuantumDotLandscape(seed=7))
             .with_planner(mode="llm-direct", hallucination_rate=0.5)
             .with_verification(False)
             .site("site-1", landscape=QuantumDotLandscape(seed=8))
             .isolated()
             .build())
    assert set(built.orchestrators) == {"site-0", "site-1"}
    assert built.orchestrator("site-0").planner.mode == "llm-direct"
    assert built.orchestrator("site-0").verification is None
    assert built.orchestrator("site-0").knowledge is built.knowledge
    assert built.orchestrator("site-1").knowledge is None  # isolated


def test_fault_tolerance_wires_alternates():
    built = (Testbed(seed=2, n_sites=3)
             .site("site-0", landscape=QuantumDotLandscape(seed=7))
             .with_fault_tolerance("site-1")
             .site("site-1", landscape=QuantumDotLandscape(seed=7))
             .build())
    ft = built.orchestrator("site-0").fault_tolerant
    assert ft is not None
    assert [alt.site for alt in ft.alternates] == ["site-1"]
    assert built.orchestrator("site-1").fault_tolerant is None


def test_build_requires_at_least_one_site():
    with pytest.raises(ValueError):
        Testbed().build()


def test_duplicate_site_rejected():
    tb = Testbed()
    tb.site("site-0")
    with pytest.raises(ValueError):
        tb.site("site-0")


def test_single_site_helpers_and_ambiguity():
    built = (Testbed(seed=3)
             .site("site-0", landscape=QuantumDotLandscape(seed=7))
             .build())
    assert built.lab().name == "site-0"
    assert built.orchestrator().site == "site-0"
    two = (Testbed(seed=3)
           .site("site-0", landscape=QuantumDotLandscape(seed=7))
           .site("site-1", landscape=QuantumDotLandscape(seed=7))
           .build())
    with pytest.raises(ValueError):
        two.orchestrator()


def test_metrics_and_tracer_shared_across_sites():
    built = (Testbed(seed=4)
             .with_metrics()
             .with_tracing()
             .site("site-0", landscape=QuantumDotLandscape(seed=7))
             .site("site-1", landscape=QuantumDotLandscape(seed=7))
             .build())
    assert built.orchestrator("site-0").metrics is built.metrics
    assert built.orchestrator("site-1").metrics is built.metrics
    assert built.orchestrator("site-0").tracer is built.tracer
    assert built.tracer.sim is built.sim


def test_run_report_is_canonical():
    spec = CampaignSpec(name="rep", objective_key="plqy", max_experiments=5)
    built = (Testbed(seed=6)
             .site("site-0", landscape=QuantumDotLandscape(seed=7))
             .build())
    report = built.run_report(spec)
    assert report.n_experiments == 5
    assert report.sim_seconds >= report.finished

    rebuilt = (Testbed(seed=6)
               .site("site-0", landscape=QuantumDotLandscape(seed=7))
               .build())
    assert rebuilt.run_report(spec).to_dict() == report.to_dict()


def test_site_builder_has_no_magic_forwarding():
    with pytest.raises(AttributeError):
        Testbed(seed=1).site("site-0").no_such_toggle()


def test_tracing_reaches_fault_tolerant_retries():
    """A traced fault-tolerant site records each execution attempt as a
    ``resilience.attempt`` span inside the experiment's ``execute`` span."""
    built = (Testbed(seed=3, n_sites=3)
             .with_tracing()
             .site("site-0", landscape=QuantumDotLandscape(seed=7))
             .with_instruments(mtbf_hours=0.02, repair_time_s=600.0)
             .with_verification(False)
             .with_fault_tolerance("site-1")
             .site("site-1", landscape=QuantumDotLandscape(seed=7))
             .build())
    result = built.run(CampaignSpec(name="ft", objective_key="plqy",
                                    max_experiments=25), site="site-0")
    assert result.counters["fault_tolerance"]["faults_handled"] > 0
    starts = {ev.span: ev for ev in built.tracer.events
              if ev.kind == "span-start"}
    attempts = [ev for ev in starts.values()
                if ev.name == "resilience.attempt"]
    assert attempts
    assert all(starts[ev.parent].name == "execute" for ev in attempts)
    assert any(ev.attrs["attempt"] >= 2 for ev in attempts)
