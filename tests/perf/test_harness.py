"""Tests for the repro.perf harness, report schema, and baseline gating."""

import json

import pytest

from repro.perf import (SCHEMA_VERSION, PerfHarness, WORKLOADS,
                        compare_reports, load_report, write_report)
from repro.perf.__main__ import main as perf_main


def _fake_report(gates, quick=True, skipped=None):
    return {"schema_version": SCHEMA_VERSION, "quick": quick, "seed": 0,
            "repeats": 1, "workloads": {}, "gates": dict(gates),
            "skipped_gates": dict(skipped or {})}


# -- harness runs --------------------------------------------------------------

def test_quick_run_produces_versioned_report():
    harness = PerfHarness(quick=True, workloads=["sim_events"])
    report = harness.run()
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["quick"] is True
    metrics = report["workloads"]["sim_events"]["metrics"]
    assert metrics["events"] > 0
    assert metrics["events_per_second"] > 0
    assert metrics["hash_equal"] == 1.0
    # Calendar-queue structure counters ride along as obs gauges.
    assert metrics["queue_coalesced"] > 0
    assert report["obs"]["counters"]["perf.workloads_run"] == 1
    assert "perf.sim_events.events_per_second" in report["obs"]["gauges"]
    assert "perf.sim_events.queue_coalesced" in report["obs"]["gauges"]


def test_skipped_gates_propagate_to_report(monkeypatch):
    def stub(clock, *, quick=False, seed=0):
        del clock, quick, seed
        return {"metrics": {"x": 1.0}, "gates": {},
                "skipped": {"speedup": "cpu_count=1 < 4"}}

    monkeypatch.setitem(WORKLOADS, "stub", stub)
    report = PerfHarness(quick=True, workloads=["stub"]).run()
    assert report["gates"] == {}
    assert report["skipped_gates"] == {"stub.speedup": "cpu_count=1 < 4"}


def test_all_workloads_registered():
    assert set(WORKLOADS) == {"surrogate_e12", "bo_ask", "gp_scaling",
                              "sim_events", "bus_throughput",
                              "bus_routing_indexed", "parallel_worlds",
                              "service_multitenant", "mesh_governance"}


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown workloads"):
        PerfHarness(workloads=["nope"])


def test_bad_repeats_rejected():
    with pytest.raises(ValueError, match="repeats"):
        PerfHarness(repeats=0)


# -- baseline comparison -------------------------------------------------------

def test_compare_passes_within_threshold():
    base = _fake_report({"w.speedup": 3.5})
    cur = _fake_report({"w.speedup": 3.0})  # -14%, inside 20%
    assert compare_reports(cur, base, threshold=0.20) == []


def test_compare_detects_regression():
    base = _fake_report({"w.speedup": 3.5})
    cur = _fake_report({"w.speedup": 2.0})  # -43%
    problems = compare_reports(cur, base, threshold=0.20)
    assert len(problems) == 1
    assert "regressed" in problems[0]


def test_compare_flags_structural_drift():
    base = _fake_report({"w.old_gate": 3.0})
    cur = _fake_report({"w.new_gate": 3.0})
    problems = compare_reports(cur, base)
    assert any("missing from current" in p for p in problems)
    assert any("no baseline entry" in p for p in problems)


def test_compare_tolerates_gate_skipped_on_current_machine():
    # Baseline measured on a big box; current box declares the skip.
    base = _fake_report({"w.parallel_speedup": 3.0})
    cur = _fake_report({}, skipped={"w.parallel_speedup": "cpu_count=1 < 4"})
    assert compare_reports(cur, base) == []


def test_compare_tolerates_gate_skipped_in_baseline():
    # Baseline from a small box; CI's bigger machine evaluates the gate.
    base = _fake_report({}, skipped={"w.parallel_speedup": "cpu_count=1 < 4"})
    cur = _fake_report({"w.parallel_speedup": 3.0})
    assert compare_reports(cur, base) == []


def test_compare_still_flags_undeclared_missing_gate():
    # A gate that vanishes *without* a declared skip is structural drift.
    base = _fake_report({"w.parallel_speedup": 3.0})
    cur = _fake_report({})
    problems = compare_reports(cur, base)
    assert any("missing from current" in p for p in problems)


def test_compare_rejects_bad_threshold():
    with pytest.raises(ValueError):
        compare_reports(_fake_report({}), _fake_report({}), threshold=1.5)


def test_load_report_rejects_other_schema(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema_version": 0, "gates": {}}))
    with pytest.raises(ValueError, match="schema_version"):
        load_report(str(path))


def test_write_then_load_roundtrip(tmp_path):
    report = _fake_report({"w.speedup": 3.25})
    path = tmp_path / "bench.json"
    write_report(report, str(path))
    assert load_report(str(path)) == report


# -- CLI -----------------------------------------------------------------------

def test_cli_writes_report_and_exits_zero(tmp_path):
    out = tmp_path / "bench.json"
    code = perf_main(["--quick", "--workloads", "sim_events",
                      "--output", str(out)])
    assert code == 0
    assert load_report(str(out))["workloads"]["sim_events"]


def test_cli_fails_on_regression(tmp_path, capsys):
    baseline = tmp_path / "base.json"
    # A baseline gate name sim_events never emits (and never declares
    # skipped) can never be satisfied: the CLI must exit nonzero and
    # say why.
    write_report(_fake_report({"sim_events.speedup": 99.0}), str(baseline))
    code = perf_main(["--quick", "--workloads", "sim_events",
                      "--baseline", str(baseline)])
    assert code == 1
    assert "PERF REGRESSION" in capsys.readouterr().err
