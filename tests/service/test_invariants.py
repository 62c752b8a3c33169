"""Generated-input invariants of the campaign service.

Hand-picked scenarios pin one run's fairness figure; these properties
hold on every input.  Hypothesis draws the tenants' quotas, the slot
count and a client's stream of submits, cancels and waits, against a
runner that fails every third campaign.  Quota use is counted from the
handles themselves, never from the service's own counters, and checked
after every kernel step and every client op, together with the load
gauges, read through ``metrics.snapshot()`` so the check itself creates
no metric.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignSpec
from repro.service import (AdmissionError, CampaignService, CampaignStatus,
                           FacilitySlot, TenantQuota, synthetic_runner)
from repro.sim.kernel import Simulator

_quotas = st.lists(st.builds(TenantQuota, max_in_flight=st.integers(1, 3),
                             max_queued=st.integers(0, 4),
                             share=st.floats(0.5, 3.0)),
                   min_size=1, max_size=4)
_ops = st.lists(st.one_of(
    # (op, tenant index, experiments, priority, deadline horizon)
    st.tuples(st.just("submit"), st.integers(0, 3), st.integers(1, 6),
              st.integers(-1, 2), st.sampled_from((None, 50.0, 500.0,
                                                   5000.0))),
    st.tuples(st.just("cancel"), st.integers(0, 39)),  # an earlier handle
    st.tuples(st.just("wait"), st.floats(0.0, 300.0))), max_size=40)


def _flaky_runner(sim):
    """A synthetic runner whose every third campaign raises mid-run."""
    inner = synthetic_runner(sim, seed=0, mean_experiment_s=60.0)
    calls = [0]

    def run(spec):
        calls[0] += 1
        if calls[0] % 3 == 0:
            yield sim.timeout(30.0)
            raise RuntimeError("instrument fault")
        return (yield from inner(spec))

    return run


@given(quotas=_quotas, n_slots=st.integers(1, 4), ops=_ops)
@settings(max_examples=300, deadline=None)
# A second cancel at the same sim time, after the first interrupt ended
# the run but before the slot collected it, used to raise.
@example(quotas=[TenantQuota(max_in_flight=1, max_queued=1, share=1.0)],
         n_slots=1, ops=[("submit", 0, 1, 0, None), ("wait", 0.0),
                         ("cancel", 0), ("wait", 0.0), ("cancel", 0)])
# Two cancels of a running campaign in one step used to both return True.
@example(quotas=[TenantQuota(max_in_flight=1, max_queued=1, share=1.0)],
         n_slots=1, ops=[("submit", 0, 1, 0, None), ("wait", 1.0),
                         ("cancel", 0), ("cancel", 0)])
def test_quotas_hold_and_nothing_starves_or_leaks(quotas, n_slots, ops):
    sim = Simulator()
    runner = _flaky_runner(sim)
    service = CampaignService(
        sim, [FacilitySlot(f"slot-{i}", runner) for i in range(n_slots)])
    names = [f"tenant-{i}" for i in range(len(quotas))]
    for name, quota in zip(names, quotas):
        service.register_tenant(name, quota)
    handles = []
    cancelled = []  # handles whose cancel() returned True
    peak = [0]      # running max of the backlog, seen after every change

    def check_quotas(*_):
        gauges = service.metrics.snapshot()["gauges"]
        for name, quota in zip(names, quotas):
            statuses = [h.status for h in handles if h.tenant == name]
            running = statuses.count(CampaignStatus.RUNNING)
            queued = statuses.count(CampaignStatus.QUEUED)
            assert running <= quota.max_in_flight, name
            assert queued <= quota.max_queued, name
            state = service.tenant(name)
            assert (running, queued) == (state.running, state.queued), name
            assert (gauges.get(f"service.running{{tenant={name}}}", 0),
                    gauges.get(f"service.queued{{tenant={name}}}", 0)) \
                == (running, queued), name
        backlog = sum(t.in_system for t in service.tenants)
        peak[0] = max(peak[0], backlog)
        assert gauges.get("service.backlog", 0) == backlog
        assert gauges.get("service.peak_in_system", 0) == peak[0]
        assert service.peak_in_system == peak[0]

    def client():
        for op in ops:
            if op[0] == "submit":
                _, tenant, experiments, priority, horizon = op
                spec = CampaignSpec(name=f"c-{len(handles)}",
                                    objective_key="objective",
                                    max_experiments=experiments)
                deadline = None if horizon is None else sim.now + horizon
                try:
                    handles.append(service.submit(
                        names[tenant % len(names)], spec,
                        priority=priority, deadline=deadline))
                except AdmissionError:
                    pass
            elif op[0] == "cancel":
                if handles:
                    handle = handles[op[1] % len(handles)]
                    if handle.cancel():
                        assert handle not in cancelled, "cancelled twice"
                        cancelled.append(handle)
            else:
                yield sim.timeout(op[1])
            # A submit may be cancelled in the same step: check the peak
            # after every op, not only between kernel steps.
            check_quotas()

    sim.step_hook = check_quotas
    sim.process(client())
    sim.run()
    check_quotas()
    assert all(h.done for h in handles)     # no admitted campaign starves
    assert len(service._idle) == n_slots    # every slot parked again
