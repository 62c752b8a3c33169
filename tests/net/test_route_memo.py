"""The per-pair route memo: every change that can move a path empties it."""

import pytest

from repro.net import FaultInjector, Link, Network, Site, Topology, Unreachable
from repro.sim import RngRegistry, Simulator


def make_net():
    """a--b direct (10 ms) with a slower a--c--b detour (2 x 50 ms)."""
    sim = Simulator()
    topo = Topology()
    for n in "abc":
        topo.add_site(Site.make(n))
    topo.connect("a", "b", Link(latency_s=0.01))
    topo.connect("a", "c", Link(latency_s=0.05))
    topo.connect("c", "b", Link(latency_s=0.05))
    faults = FaultInjector(sim)
    net = Network(sim, topo, RngRegistry(0).stream("net"), faults)
    return sim, topo, faults, net


def test_shortcut_connected_after_cached_route_is_taken():
    sim = Simulator()
    topo = Topology()
    for n in "abc":
        topo.add_site(Site.make(n))
    topo.connect("a", "b", Link(latency_s=0.01))
    topo.connect("b", "c", Link(latency_s=0.01))
    net = Network(sim, topo, RngRegistry(0).stream("net"))
    assert net.route("a", "c") == ["a", "b", "c"]
    topo.connect("a", "c", Link(latency_s=0.005))
    assert net.route("a", "c") == ["a", "c"]


def test_new_site_becomes_routable_after_add_site_and_connect():
    _sim, topo, _faults, net = make_net()
    assert net.route("a", "b") == ["a", "b"]
    with pytest.raises(Unreachable):
        net.route("a", "d")
    topo.add_site(Site.make("d"))
    with pytest.raises(Unreachable):
        net.route("a", "d")
    topo.connect("b", "d", Link(latency_s=0.01))
    assert net.route("a", "d") == ["a", "b", "d"]


def test_timed_link_fault_detour_reverts_without_restore():
    sim, _topo, faults, net = make_net()
    assert net.route("a", "b") == ["a", "b"]
    faults.fail_link("a", "b", duration=5)
    assert net.route("a", "b") == ["a", "c", "b"]
    sim.run(until=4.9)
    assert net.route("a", "b") == ["a", "c", "b"]
    sim.run(until=5.0)
    assert net.route("a", "b") == ["a", "b"]


def test_mutating_a_returned_route_does_not_change_the_next():
    _sim, _topo, faults, net = make_net()
    faults.fail_link("a", "b")
    path = net.route("a", "b")
    path[0] = "z"
    path.append("c")
    assert net.route("a", "b") == ["a", "c", "b"]
    assert net.route("a", "b") is not net.route("a", "b")
