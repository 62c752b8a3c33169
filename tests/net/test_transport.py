"""Tests for the Network transfer model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (FaultInjector, Link, Network, PacketLost, Site,
                       Topology, Unreachable)
from repro.net.topology import LOCAL_LINK
from repro.sim import RngRegistry, Simulator


def make_net(loss=0.0, jitter=0.0, latency=0.01, bandwidth=1e9, seed=1):
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site.make("a"))
    topo.add_site(Site.make("b"))
    topo.connect("a", "b", Link(latency_s=latency, bandwidth_Bps=bandwidth,
                                jitter_s=jitter, loss_prob=loss))
    faults = FaultInjector(sim)
    net = Network(sim, topo, RngRegistry(seed).stream("net"), faults)
    return sim, net, faults


def run_transfer(sim, net, src="a", dst="b", size=1000.0):
    result = {}

    def proc(sim, net):
        latency = yield from net.transfer(src, dst, size)
        result["latency"] = latency
        result["arrived_at"] = sim.now

    p = sim.process(proc(sim, net))
    sim.run()
    return result, p


def test_delivery_time_latency_plus_serialization():
    sim, net, _ = make_net(latency=0.01, bandwidth=1e6)
    result, _ = run_transfer(sim, net, size=1000.0)
    # 10 ms propagation + 1000/1e6 s serialization = 11 ms
    assert result["arrived_at"] == pytest.approx(0.011)
    assert result["latency"] == pytest.approx(0.011)


def test_local_delivery_is_fast():
    sim, net, _ = make_net()
    result, _ = run_transfer(sim, net, src="a", dst="a", size=100.0)
    assert result["arrived_at"] < 0.001


def test_jitter_perturbs_latency():
    sim, net, _ = make_net(jitter=0.005)
    result, _ = run_transfer(sim, net)
    assert result["arrived_at"] >= 0.01  # jitter is only ever additive


def test_loss_fails_transfer():
    sim, net, _ = make_net(loss=0.999999)

    def proc(sim, net):
        with pytest.raises(PacketLost):
            yield from net.transfer("a", "b", 100.0)

    sim.process(proc(sim, net))
    sim.run()
    assert net.stats["lost"] == 1


def test_link_fault_makes_unreachable():
    sim, net, faults = make_net()
    faults.fail_link("a", "b")

    def proc(sim, net):
        with pytest.raises(Unreachable):
            yield from net.transfer("a", "b", 100.0)

    sim.process(proc(sim, net))
    sim.run()
    assert net.stats["unreachable"] == 1


def test_link_fault_heals_after_duration():
    sim, net, faults = make_net()
    faults.fail_link("a", "b", duration=5.0)
    outcomes = []

    def proc(sim, net):
        try:
            yield from net.transfer("a", "b", 100.0)
            outcomes.append("early-ok")
        except Unreachable:
            outcomes.append("early-fail")
        yield sim.timeout(10.0)
        yield from net.transfer("a", "b", 100.0)
        outcomes.append("late-ok")

    sim.process(proc(sim, net))
    sim.run()
    assert outcomes == ["early-fail", "late-ok"]


def test_site_fault_blocks_endpoint():
    sim, net, faults = make_net()
    faults.fail_site("b")

    def proc(sim, net):
        with pytest.raises(Unreachable):
            yield from net.transfer("a", "b", 100.0)

    sim.process(proc(sim, net))
    sim.run()


def test_partition_blocks_cross_group_traffic():
    sim = Simulator()
    topo = Topology.national_lab_testbed(4, jitter_s=0.0)
    faults = FaultInjector(sim)
    net = Network(sim, topo, RngRegistry(2).stream("net"), faults)
    faults.partition(["site-0", "site-1"], ["site-2", "site-3"])
    results = []

    def proc(sim, net):
        # within-group traffic still works
        yield from net.transfer("site-0", "site-1", 10.0)
        results.append("intra-ok")
        try:
            yield from net.transfer("site-0", "site-2", 10.0)
        except Unreachable:
            results.append("inter-blocked")

    sim.process(proc(sim, net))
    sim.run()
    assert results == ["intra-ok", "inter-blocked"]


def test_reroute_around_failed_link():
    sim = Simulator()
    topo = Topology()
    for n in "abc":
        topo.add_site(Site.make(n))
    topo.connect("a", "b", Link(latency_s=0.01, jitter_s=0.0))
    topo.connect("a", "c", Link(latency_s=0.05, jitter_s=0.0))
    topo.connect("c", "b", Link(latency_s=0.05, jitter_s=0.0))
    faults = FaultInjector(sim)
    net = Network(sim, topo, RngRegistry(3).stream("net"), faults)
    faults.fail_link("a", "b")
    result = {}

    def proc(sim, net):
        yield from net.transfer("a", "b", 0.0)
        result["t"] = sim.now

    sim.process(proc(sim, net))
    sim.run()
    assert result["t"] == pytest.approx(0.10)  # took the a-c-b detour


def test_degraded_link_extra_loss():
    sim, net, faults = make_net(loss=0.0)
    faults.degrade_link("a", "b", extra_loss=1.0)

    def proc(sim, net):
        with pytest.raises(PacketLost):
            yield from net.transfer("a", "b", 10.0)

    sim.process(proc(sim, net))
    sim.run()


def test_degradation_expires():
    sim, net, faults = make_net(loss=0.0)
    faults.degrade_link("a", "b", extra_loss=1.0, duration=1.0)

    def proc(sim, net):
        yield sim.timeout(2.0)
        yield from net.transfer("a", "b", 10.0)  # must succeed

    sim.process(proc(sim, net))
    sim.run()


def test_stats_accumulate():
    sim, net, _ = make_net()

    def proc(sim, net):
        for _ in range(5):
            yield from net.transfer("a", "b", 100.0)

    sim.process(proc(sim, net))
    sim.run()
    assert net.stats["transfers"] == 5
    assert net.stats["bytes"] == 500.0
    assert net.mean_latency() > 0


def test_fault_injector_any_active(sim):
    faults = FaultInjector(sim)
    assert not faults.any_active()
    faults.fail_link("a", "b", duration=1.0)
    assert faults.any_active()


def test_unknown_site_is_unreachable():
    _, net, _ = make_net()
    with pytest.raises(Unreachable):
        net.route("a", "ghost")
    with pytest.raises(Unreachable):
        net.route("ghost", "b")


def test_routing_bug_is_not_reported_as_unreachable(monkeypatch):
    _, net, _ = make_net()

    def broken_path(*args, **kwargs):
        raise RuntimeError("routing bug")

    monkeypatch.setattr(net.topology, "path", broken_path)
    with pytest.raises(RuntimeError, match="routing bug"):
        net.route("a", "b")


# -- replay oracle: transfer pricing -----------------------------------------


def _ref_sample_delay(net, path, size_bytes):
    """One ``normal(0.0, jitter_s)`` call per jittered link, summed link by
    link: the per-link body that one draw per transfer must replay."""
    if len(path) <= 1:
        return LOCAL_LINK.latency_s + size_bytes / LOCAL_LINK.bandwidth_Bps
    total = 0.0
    for link in net.topology.path_links(path):
        total += link.latency_s + size_bytes / link.bandwidth_Bps
        if link.jitter_s > 0:
            total += max(0.0, float(net.rng.normal(0.0, link.jitter_s)))
    return total


def _ref_lost(net, path):
    """Asks ``extra_loss`` of every link until the first loss."""
    if len(path) <= 1:
        return False
    for (a, b), link in zip(zip(path, path[1:]),
                            net.topology.path_links(path)):
        p = link.loss_prob + net.faults.extra_loss(a, b)
        if p > 0 and net.rng.random() < p:
            return True
    return False


_links = st.lists(st.tuples(
    st.floats(0.0, 0.1),                                       # latency_s
    st.floats(1e6, 1e10),                                      # bandwidth
    st.one_of(st.just(0.0), st.floats(1e-5, 0.01)),            # jitter_s
    st.one_of(st.just(0.0), st.floats(1e-3, 0.3))), max_size=40)  # loss


@given(links=_links, data=st.data(), seed=st.integers(0, 2**32 - 1),
       buffered=st.booleans())
@settings(max_examples=150, deadline=None)
def test_property_transfer_pricing_replays_per_link_draws(links, data, seed,
                                                          buffered):
    """``sample_delay`` and ``send``'s loss decision equal the per-link
    scalar bodies on a twin generator, float for float (by ``.hex()``),
    with equal generator states and fault tables after every transfer."""
    sim = Simulator()
    topo = Topology()
    names = [f"s{i}" for i in range(len(links) + 1)]
    for name in names:
        topo.add_site(Site.make(name))
    for (a, b), (lat, bw, jit, loss) in zip(zip(names, names[1:]), links):
        topo.connect(a, b, Link(latency_s=lat, bandwidth_Bps=bw,
                                jitter_s=jit, loss_prob=loss))
    net = Network(sim, topo, np.random.default_rng(seed), FaultInjector(sim))
    ref = Network(sim, topo, np.random.default_rng(seed), FaultInjector(sim))
    if buffered:  # leave half of a uint64 buffered in both generators
        assert net.rng.integers(0, 10) == ref.rng.integers(0, 10)
    degraded = st.lists(st.integers(0, len(links) - 1), max_size=4,
                        unique=True) if links else st.just([])
    for i in data.draw(degraded):
        duration = data.draw(st.one_of(st.none(), st.sampled_from((0.5, 2.0))))
        extra = data.draw(st.floats(0.0, 1.0))
        for faults in (net.faults, ref.faults):
            faults.degrade_link(names[i], names[i + 1], extra_loss=extra,
                                duration=duration)
    site = st.integers(0, len(names) - 1)
    script = data.draw(st.lists(
        st.tuples(st.sampled_from((0.0, 1.0)), site, site,
                  st.floats(0.0, 1e9)), min_size=1, max_size=4))

    def state(side):
        return side.rng.bit_generator.state, dict(side.faults._degraded)

    outcomes = []  # per transfer: (net's, ref's)

    def transfers():
        # Compared after the run: an assert failing inside a process
        # unwinds through the kernel, and hypothesis formats that long
        # traceback again on every shrink and explain step.
        for wait, i, j, size in script:
            yield sim.timeout(wait)
            path = names[min(i, j):max(i, j) + 1]
            ev = net.send(path[0], path[-1], size)
            got = (ev.ok, ev.value.hex() if ev.ok else None, state(net),
                   net.sample_delay(path, size).hex(), state(net))
            delay = _ref_sample_delay(ref, path, size)
            delivered = not _ref_lost(ref, path)
            want = (delivered, delay.hex() if delivered else None, state(ref),
                    _ref_sample_delay(ref, path, size).hex(), state(ref))
            outcomes.append((got, want))
            try:
                yield ev
            except PacketLost:
                pass

    sim.process(transfers())
    sim.run()
    assert len(outcomes) == len(script)
    for got, want in outcomes:
        assert got == want
