"""Smoke tests: every shipped example must run end-to-end.

Slow examples get their module constants shrunk first — the point is that
the public API wiring works, not the full-scale result.
"""

import importlib


def _run_main(module_name: str, monkeypatch, **overrides):
    mod = importlib.import_module(module_name)
    for name, value in overrides.items():
        monkeypatch.setattr(mod, name, value, raising=True)
    mod.main()


def test_quickstart_runs(capsys, monkeypatch):
    _run_main("examples.quickstart", monkeypatch)
    out = capsys.readouterr().out
    assert "campaign summary" in out
    assert "best recipe found" in out


def test_federated_campaign_runs(capsys, monkeypatch):
    _run_main("examples.federated_campaign", monkeypatch,
              DONOR_BUDGET=15, JOINER_BUDGET=25, TARGET=0.25)
    out = capsys.readouterr().out
    assert "experiments to target" in out
    assert "knowledge integration" in out


def test_smart_dope_runs(capsys, monkeypatch):
    _run_main("examples.smart_dope", monkeypatch, BUDGET=30)
    out = capsys.readouterr().out
    assert "synthesis condition space" in out
    assert "oracle optimum" in out


def test_resilient_operations_runs(capsys, monkeypatch):
    _run_main("examples.resilient_operations", monkeypatch)
    out = capsys.readouterr().out
    assert "campaign under fire" in out
    assert "still completed" in out


def test_data_fabric_tour_runs(capsys, monkeypatch):
    _run_main("examples.data_fabric_tour", monkeypatch)
    out = capsys.readouterr().out
    assert "near-real-time stream processing" in out
    assert "restricted record export blocked: True" in out


def test_cross_facility_workflow_runs(capsys, monkeypatch):
    _run_main("examples.cross_facility_workflow", monkeypatch)
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "analysis verdict" in out


def test_campaign_service_runs(capsys, monkeypatch):
    # The example itself asserts the replayed run reproduces the same
    # decision hash — the acceptance criterion for repro.service.
    _run_main("examples.campaign_service", monkeypatch)
    out = capsys.readouterr().out
    assert "reason=queue-full" in out
    assert "'expired': 1" in out
    assert "cancelled par-7" in out
    assert "decision hash reproduced" in out


def test_observability_tour_runs(capsys, monkeypatch):
    # The example itself asserts its two seeded runs export byte-identical
    # JSON-lines traces — the acceptance criterion for repro.obs.
    _run_main("examples.observability_tour", monkeypatch)
    out = capsys.readouterr().out
    assert "span tree" in out
    assert "byte-identical = True" in out
    assert "latency histograms" in out
