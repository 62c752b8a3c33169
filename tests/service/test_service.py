"""CampaignService lifecycle: handles, cancellation, reports, metrics."""

import pytest

from repro.core.campaign import CampaignSpec
from repro.core.report import CampaignReport
from repro.service import (CampaignCancelled, CampaignFailed,
                           CampaignNotDone, CampaignService, CampaignStatus,
                           FacilitySlot, TenantQuota, synthetic_runner)
from repro.sim.kernel import Simulator
from repro.testbed import Testbed


def spec(name, experiments=3):
    return CampaignSpec(name=name, objective_key="objective",
                        max_experiments=experiments)


def make_service(n_slots=2, **kw):
    sim = Simulator()
    runner = synthetic_runner(sim, seed=1, mean_experiment_s=100.0)
    svc = CampaignService(
        sim, [FacilitySlot(f"slot-{i}", runner) for i in range(n_slots)],
        **kw)
    return sim, svc


def test_submit_run_result_roundtrip():
    sim, svc = make_service()
    svc.register_tenant("a")
    handle = svc.submit("a", spec("c0"))
    assert handle.status is CampaignStatus.QUEUED
    assert not handle.done
    with pytest.raises(CampaignNotDone):
        handle.result()
    sim.run()
    assert handle.status is CampaignStatus.COMPLETED
    report = handle.result()
    assert isinstance(report, CampaignReport)
    assert report.tenant == "a"
    assert report.n_experiments == 3
    assert handle.latency is not None and handle.latency > 0
    assert handle.queue_wait == 0.0  # dispatched at submit time


def test_cancel_queued_campaign():
    sim, svc = make_service(n_slots=1)
    svc.register_tenant("a", TenantQuota(max_in_flight=1))
    running = svc.submit("a", spec("r"))
    queued = svc.submit("a", spec("q"))
    assert queued.cancel() is True
    assert queued.status is CampaignStatus.CANCELLED
    assert queued.cancel() is False  # already terminal
    sim.run()
    assert running.status is CampaignStatus.COMPLETED
    with pytest.raises(CampaignCancelled):
        queued.result()
    assert svc.tenant("a").completed_campaigns == 1


def test_cancel_running_campaign_interrupts_mid_flight():
    sim, svc = make_service(n_slots=1)
    svc.register_tenant("a")
    handle = svc.submit("a", spec("c", experiments=10))

    def canceller():
        yield sim.timeout(150.0)
        assert handle.status is CampaignStatus.RUNNING
        assert handle.cancel() is True

    sim.process(canceller())
    sim.run()
    assert handle.status is CampaignStatus.CANCELLED
    assert handle.finished_at == pytest.approx(150.0)
    # The slot survives the interrupt and serves the next campaign.
    follow_up = svc.submit("a", spec("next"))
    sim.run()
    assert follow_up.status is CampaignStatus.COMPLETED


def test_second_cancel_before_the_slot_collects_the_run_is_a_no_op():
    sim, svc = make_service(n_slots=1)
    svc.register_tenant("a")
    handle = svc.submit("a", spec("c", experiments=10))
    answers = []

    def canceller():
        yield sim.timeout(0.0)
        answers.append(handle.cancel())
        # The interrupt ends the run; the slot has not collected it yet.
        yield sim.timeout(0.0)
        assert handle.status is CampaignStatus.RUNNING
        answers.append(handle.cancel())

    sim.process(canceller())
    sim.run()
    assert answers == [True, False]
    assert handle.status is CampaignStatus.CANCELLED
    assert len(svc._idle) == 1  # the slot is parked again
    assert [row[2] for row in svc.decision_log()] == ["cancelled"]


def test_two_cancels_in_one_step_interrupt_once():
    sim, svc = make_service(n_slots=1)
    svc.register_tenant("a")
    handle = svc.submit("a", spec("c", experiments=10))
    sim.run(until=1.0)
    assert handle.status is CampaignStatus.RUNNING
    # Both calls land before the first interrupt is delivered.
    assert [handle.cancel(), handle.cancel()] == [True, False]
    sim.run()
    assert handle.status is CampaignStatus.CANCELLED
    assert [row[2] for row in svc.decision_log()] == ["cancelled"]


def test_runner_exception_fails_campaign_not_service():
    sim = Simulator()

    def bad_runner(spec_):
        yield sim.timeout(10.0)
        raise RuntimeError("reactor on fire")

    ok_runner = synthetic_runner(sim, seed=1, mean_experiment_s=10.0)
    svc = CampaignService(sim, [FacilitySlot("bad", bad_runner)])
    svc.register_tenant("a")
    failed = svc.submit("a", spec("f"))
    sim.run()
    assert failed.status is CampaignStatus.FAILED
    assert "reactor on fire" in failed.error
    with pytest.raises(CampaignFailed, match="reactor on fire"):
        failed.result()
    # The slot loop survives and keeps serving.
    del ok_runner
    again = svc.submit("a", spec("g"))
    sim.run()
    assert again.status is CampaignStatus.FAILED  # same bad runner ran it


def test_runner_returning_wrong_type_fails_with_type_error():
    sim = Simulator()
    ok_runner = synthetic_runner(sim, seed=1, mean_experiment_s=10.0)
    calls = []

    def runner(spec_):
        calls.append(spec_.name)
        if len(calls) == 1:
            yield sim.timeout(5.0)
            return {"n_experiments": 3}  # neither result nor report
        return (yield from ok_runner(spec_))

    svc = CampaignService(sim, [FacilitySlot("s0", runner)])
    svc.register_tenant("a")
    failed = svc.submit("a", spec("f"))
    sim.run()
    assert failed.status is CampaignStatus.FAILED
    assert failed.error.startswith("TypeError: ")
    assert "runner for slot 's0' returned dict" in failed.error
    # The slot loop survives and serves the next campaign.
    again = svc.submit("a", spec("g"))
    sim.run()
    assert again.status is CampaignStatus.COMPLETED
    assert again.result().n_experiments == 3


def test_wait_from_inside_simulation():
    sim, svc = make_service()
    svc.register_tenant("a")
    seen = {}

    def client():
        handle = svc.submit("a", spec("c"))
        report = yield from handle.wait()
        seen["report"] = report
        seen["now"] = sim.now

    sim.process(client())
    sim.run()
    assert seen["report"].campaign == "c"
    assert seen["now"] > 0


def test_in_flight_cap_holds_campaigns_back():
    sim, svc = make_service(n_slots=4)
    svc.register_tenant("a", TenantQuota(max_in_flight=1, max_queued=10))
    handles = [svc.submit("a", spec(f"c{i}", experiments=1))
               for i in range(3)]
    sim.run()
    assert all(h.status is CampaignStatus.COMPLETED for h in handles)
    # With a cap of one, campaigns ran strictly one at a time even with
    # four slots free: each starts only after the previous finished.
    starts = sorted(h.started_at for h in handles)
    ends = sorted(h.finished_at for h in handles)
    assert starts[1] >= ends[0] and starts[2] >= ends[1]


def test_service_metrics_and_load_snapshot():
    sim, svc = make_service()
    svc.register_tenant("a")
    svc.register_tenant("b", TenantQuota(share=2.0))
    for i in range(3):
        svc.submit("a", spec(f"a{i}"))
        svc.submit("b", spec(f"b{i}"))
    load = svc.load()
    assert load["backlog"] == 6
    assert load["tenants"]["a"]["queued"] == 3
    sim.run()
    snap = svc.metrics.snapshot()
    assert snap["counters"]["service.completed{tenant=a}"] == 3
    assert snap["counters"]["service.experiments{tenant=b}"] == 9
    hist = snap["histograms"]["service.submit_to_complete"]
    assert hist["count"] == 6
    assert svc.peak_in_system == 6
    assert 0.0 < svc.fairness() <= 1.0


def test_decision_log_is_plain_data():
    sim, svc = make_service()
    svc.register_tenant("a")
    svc.submit("a", spec("c"))
    sim.run()
    log = svc.decision_log()
    assert len(log) == 1
    row = log[0]
    assert row[0] == "c-000001" and row[1] == "a" and row[2] == "completed"
    assert all(isinstance(x, (str, float)) for x in row)


def test_from_testbed_runs_real_orchestrators():
    built = (Testbed(seed=11, n_sites=2)
             .site("site-0").site("site-1").build())
    svc = built.as_service()
    svc.register_tenant("lab")
    handle = svc.submit(
        "lab", CampaignSpec(name="real", objective_key="plqy",
                            max_experiments=4))
    built.sim.run()
    report = handle.result()
    assert report.tenant == "lab"
    assert report.n_experiments == 4
    assert len(report.decisions) == 4


def test_utilization_report_reads_emitted_metrics():
    sim, svc = make_service(n_slots=1)
    svc.register_tenant("a")
    svc.register_tenant("b")
    svc.submit("a", spec("c0"))
    svc.submit("a", spec("c1"))
    svc.submit("b", spec("c2"))
    mid = svc.utilization_report()
    assert mid["backlog"] == 3.0
    sim.run()
    report = svc.utilization_report()
    # The dashboard is read back from the service.* metrics, so it must
    # agree with the handles' own accounting.
    assert report["backlog"] == 0.0
    assert report["peak_in_system"] == 3.0
    assert report["tenants"]["a"]["admitted"] == 2.0
    assert report["tenants"]["b"]["admitted"] == 1.0
    assert report["tenants"]["a"]["queued"] == 0.0
    assert report["tenants"]["a"]["running"] == 0.0
    # One slot serialized three campaigns: someone waited in queue.
    waits = [report["tenants"][t]["queue_wait"] for t in ("a", "b")]
    assert sum(w["count"] for w in waits) == 3
    assert max(w["max"] for w in waits) > 0.0
