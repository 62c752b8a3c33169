"""Load generation: fairness under skew, backpressure, open/closed mix."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scale import decision_hash
from repro.service import (AdmissionError, CampaignService, FacilitySlot,
                           LoadGenerator, TenantLoad, TenantQuota,
                           jain_fairness, synthetic_runner)
from repro.sim.kernel import Simulator


def make_service(n_slots, seed=1, mean_experiment_s=100.0):
    sim = Simulator()
    runner = synthetic_runner(sim, seed=seed,
                              mean_experiment_s=mean_experiment_s)
    return CampaignService(
        sim, [FacilitySlot(f"slot-{i}", runner) for i in range(n_slots)])


def test_jain_fairness_index():
    assert jain_fairness([]) == 1.0
    assert jain_fairness([0.0, 0.0]) == 1.0
    assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_closed_loop_completes_all_campaigns():
    svc = make_service(4)
    gen = LoadGenerator(svc, [TenantLoad(name="t", mode="closed",
                                         campaigns=10, concurrency=4,
                                         experiments=2)], seed=3)
    out = gen.run()
    assert out["campaigns_completed"] == 10
    assert out["tenants"]["t"]["rejections"] == 0
    assert out["p99_submit_to_complete_s"] > 0


def test_open_loop_overload_rejects_explicitly():
    # One slot, tiny queue, arrivals far above service rate: the bounded
    # queue must push back with explicit rejections, never silent drops.
    svc = make_service(1, mean_experiment_s=500.0)
    load = TenantLoad(name="burst", mode="open", campaigns=40,
                      arrival_rate_per_s=0.1, experiments=4,
                      quota=TenantQuota(max_in_flight=1, max_queued=2))
    gen = LoadGenerator(svc, [load], seed=5)
    out = gen.run(until=20_000.0)
    t = out["tenants"]["burst"]
    assert t["rejections"] > 0
    assert t["submitted"] + t["rejections"] <= 40
    assert out["peak_in_system"] <= 3  # 1 running + 2 queued


def test_fairness_under_skewed_load():
    # One tenant floods 10x harder; equal shares must still split
    # delivered throughput roughly evenly under saturation.
    svc = make_service(4, mean_experiment_s=200.0)
    loads = [
        TenantLoad(name="flood", mode="closed", campaigns=60,
                   concurrency=20, experiments=4,
                   quota=TenantQuota(max_in_flight=20, max_queued=100)),
        TenantLoad(name="polite", mode="closed", campaigns=60,
                   concurrency=2, experiments=4,
                   quota=TenantQuota(max_in_flight=20, max_queued=100)),
    ]
    gen = LoadGenerator(svc, loads, seed=9)
    out = gen.run(until=12_000.0)
    assert out["fairness"] >= 0.8
    flood = out["tenants"]["flood"]["experiments"]
    polite = out["tenants"]["polite"]["experiments"]
    assert polite > 0
    # The flooder must not get more than ~2x despite 10x the pressure.
    assert flood / max(polite, 1) < 2.0


def test_weighted_shares_deliver_proportional_throughput():
    svc = make_service(4, mean_experiment_s=200.0)
    loads = [
        TenantLoad(name="gold", mode="closed", campaigns=60,
                   concurrency=10, experiments=4, share=3.0,
                   quota=TenantQuota(max_in_flight=10, max_queued=100,
                                     share=3.0)),
        TenantLoad(name="bronze", mode="closed", campaigns=60,
                   concurrency=10, experiments=4,
                   quota=TenantQuota(max_in_flight=10, max_queued=100)),
    ]
    # Cut off at half the total work so contention (not completion)
    # determines who got served.
    gen = LoadGenerator(svc, loads, seed=9)
    out = gen.run(until=12_000.0)
    gold = out["tenants"]["gold"]["experiments"]
    bronze = out["tenants"]["bronze"]["experiments"]
    assert gold / max(bronze, 1) == pytest.approx(3.0, rel=0.25)


def test_mixed_open_closed_population():
    svc = make_service(8)
    loads = [
        TenantLoad(name="closed", mode="closed", campaigns=12,
                   concurrency=4, experiments=2),
        TenantLoad(name="open", mode="open", campaigns=12,
                   arrival_rate_per_s=0.01, experiments=2),
    ]
    out = LoadGenerator(svc, loads, seed=2).run()
    assert out["campaigns_completed"] == 24
    assert 0.9 <= out["fairness"] <= 1.0


@pytest.mark.parametrize("quota, experiments, completed", [
    # max_queued=0: every submit is QueueFull, and no completion clears it.
    (TenantQuota(max_in_flight=1, max_queued=0), 8, 0),
    # Two 4-experiment campaigns spend 8 of 10; the third never fits.
    (TenantQuota(experiment_budget=10), 4, 2),
], ids=["no-queue", "budget-spent"])
def test_closed_loop_stops_on_a_rejection_that_cannot_clear(
        quota, experiments, completed):
    svc = make_service(1)
    gen = LoadGenerator(svc, [TenantLoad(name="t", campaigns=5,
                                         concurrency=2,
                                         experiments=experiments,
                                         quota=quota)], seed=3)
    gen.run(until=1e5)
    out = gen.run(until=1e6)
    # Nothing is left to run: the loop did not keep backing off.
    assert svc.sim.peek() == float("inf")
    assert out["rejections"] == 1
    assert out["campaigns_completed"] == completed


def test_bad_load_shapes_rejected():
    with pytest.raises(ValueError):
        TenantLoad(name="x", mode="sideways")
    with pytest.raises(ValueError):
        TenantLoad(name="x", mode="open", arrival_rate_per_s=0.0)
    with pytest.raises(ValueError):
        TenantLoad(name="x", mode="closed", concurrency=0)
    svc = make_service(1)
    with pytest.raises(ValueError):
        LoadGenerator(svc, [])


# -- the closed loop's wake rule against an any_of oracle -------------------

class AnyOfLoadGenerator(LoadGenerator):
    """The closed loop written the plain way: wait on ``any_of`` over every
    in-flight handle, then keep the handles that are not done."""

    def _closed_loop(self, load, rng):
        sim = self.service.sim
        submitted = 0
        in_flight = []
        while submitted < load.campaigns or in_flight:
            while submitted < load.campaigns \
                    and len(in_flight) < load.concurrency:
                try:
                    in_flight.append(self._submit(load, submitted))
                except AdmissionError:
                    self.rejections[load.name] += 1
                    yield sim.timeout(
                        self.retry_backoff_s * (0.5 + rng.random()))
                    continue
                submitted += 1
            if in_flight:
                yield sim.any_of([h._done for h in in_flight])
                in_flight = [h for h in in_flight if not h.done]


_deadlines = st.sampled_from((None, 90.0, 240.0, 900.0))
# (concurrency, campaigns, experiments, max_in_flight, max_queued, deadline)
_closed = st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 3),
                    st.integers(1, 3), st.integers(1, 3), _deadlines)
# (campaigns, arrival rate per s, experiments, deadline)
_open = st.tuples(st.integers(1, 8), st.sampled_from((0.005, 0.02, 0.1)),
                  st.integers(1, 3), _deadlines)
# (time on a 30 s grid, tenant index, handle index): with jitter off, an
# experiment lasts exactly 60 s, so cancels land on completion instants.
_cancels = st.lists(st.tuples(st.integers(0, 60).map(lambda k: 30.0 * k),
                              st.integers(0, 4), st.integers(0, 9)),
                    max_size=8)


def _drive(generator_cls, n_slots, closed, opened, cancels, jitter, seed):
    sim = Simulator()
    runner = synthetic_runner(sim, seed=seed, mean_experiment_s=60.0,
                              jitter=jitter)
    service = CampaignService(
        sim, [FacilitySlot(f"slot-{i}", runner) for i in range(n_slots)])
    loads = [TenantLoad(name=f"closed-{i}", mode="closed", campaigns=n,
                        concurrency=c, experiments=e, deadline_s=d,
                        quota=TenantQuota(max_in_flight=f, max_queued=q))
             for i, (c, n, e, f, q, d) in enumerate(closed)]
    loads += [TenantLoad(name=f"open-{i}", mode="open", campaigns=n,
                         arrival_rate_per_s=r, experiments=e, deadline_s=d,
                         quota=TenantQuota(max_in_flight=2, max_queued=2))
              for i, (n, r, e, d) in enumerate(opened)]
    gen = generator_cls(service, loads, seed=seed)

    def canceller():
        for at, tenant, index in sorted(cancels):
            yield sim.timeout(at - sim.now)
            handles = gen.handles[loads[tenant % len(loads)].name]
            if index < len(handles):
                handles[index].cancel()

    sim.process(canceller())
    # The kernel's event stream, with the wake event standing in for the
    # oracle's AnyOf: one event each, at the same place.
    stream = []
    sim.step_hook = lambda now, ev: stream.append(
        (now, "Event" if type(ev).__name__ == "AnyOf" else type(ev).__name__))
    gen.run()
    return (stream, service.decision_log(), gen.rejections, sim.now,
            service.metrics.state())


@given(n_slots=st.integers(1, 4),
       closed=st.lists(_closed, min_size=1, max_size=3),
       opened=st.lists(_open, max_size=2), cancels=_cancels,
       jitter=st.sampled_from((0.0, 0.3)), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
# A campaign finishes during a QueueFull back-off: the next wait wakes at
# once.
@example(n_slots=2, closed=[(1, 1, 1, 1, 1, None), (2, 2, 1, 1, 1, None)],
         opened=[], cancels=[], jitter=0.0, seed=0)
# A cancel at t=180 ends a queued campaign, whose done event wakes the
# loop; the running one completes at t=180 after the wake was pushed.
# The loop drops it on waking, and its done event then wakes nothing.
@example(n_slots=1, closed=[(2, 3, 3, 1, 1, None), (1, 1, 1, 1, 1, None)],
         opened=[], cancels=[(180.0, 0, 1)], jitter=0.0, seed=0)
def test_closed_loop_matches_any_of_oracle(n_slots, closed, opened, cancels,
                                           jitter, seed):
    """One wake event per wait fires where ``any_of`` would: the same
    event stream, decisions, rejections, end time and metrics, through
    QueueFull back-offs, deadline expiries and cancels on completion
    instants."""
    args = (n_slots, closed, opened, cancels, jitter, seed)
    assert _drive(LoadGenerator, *args) == _drive(AnyOfLoadGenerator, *args)


# -- the 8-tenant, 1200-campaign scenario ------------------------------------

def _service_scenario(seed: int) -> dict:
    """One full multi-tenant service run (sim-deterministic)."""
    n_slots = 32
    campaigns_per_tenant = 150
    experiments = 6

    sim = Simulator()
    runner = synthetic_runner(sim, seed=seed, mean_experiment_s=240.0)
    service = CampaignService(
        sim, [FacilitySlot(f"slot-{i}", runner) for i in range(n_slots)])
    loads = []
    for i in range(4):  # standing pipelines: keep 40 in flight each
        loads.append(TenantLoad(
            name=f"closed-{i}", mode="closed",
            campaigns=campaigns_per_tenant, concurrency=40,
            experiments=experiments,
            quota=TenantQuota(max_in_flight=40, max_queued=200)))
    for i in range(4):  # bursty external partners: Poisson, deadlined
        loads.append(TenantLoad(
            name=f"open-{i}", mode="open",
            campaigns=campaigns_per_tenant, arrival_rate_per_s=0.1,
            experiments=experiments, deadline_s=200_000.0,
            quota=TenantQuota(max_in_flight=40, max_queued=200)))
    gen = LoadGenerator(service, loads, seed=seed)
    summary = gen.run()
    summary["decision_digest"] = decision_hash(service.decision_log())
    summary["metrics_digest"] = hashlib.sha256(json.dumps(
        service.metrics.state(), sort_keys=True).encode()).hexdigest()
    return summary


def test_multitenant_scenario_is_pinned():
    """Four closed pipelines and four deadlined Poisson tenants push
    1,200 campaigns through 32 slots, several hundred in the system at
    the peak.  Every figure is sim time, so each is pinned exactly; the
    decision digest also pins the dispatch order, which fairness and p99
    alone do not (a reversed tenant tie-break keeps fairness 1.0 and the
    peak at 760)."""
    first, replay = _service_scenario(0), _service_scenario(0)
    digest = ("3a089ff49bd59a0457f822f3e663f530"
              "7e62bab0d06ade3d0d15f4e094371da9")
    assert first["decision_digest"] == replay["decision_digest"] == digest
    # Every service.* counter, gauge and histogram sketch at the end.
    assert first["metrics_digest"] == (
        "0aaa0b46f89a91a469e15ca9b34d6860cd9ac38012b156cfd384580b36511892")
    assert len(first["tenants"]) == 8
    assert first["campaigns_completed"] == 1200
    assert first["rejections"] == 0
    assert first["peak_in_system"] == 760
    assert first["fairness"] == 1.0
    assert first["p99_submit_to_complete_s"] == 53528.12042426152
    assert first["p99_submit_to_complete_s"] <= 100_000.0  # latency budget
