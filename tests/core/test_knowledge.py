"""Tests for the cross-facility knowledge base (M9 substrate)."""

import numpy as np
import pytest

from repro.core import KnowledgeBase
from repro.labsci import ContinuousDim, ParameterSpace
from repro.methods import BayesianOptimizer


@pytest.fixture
def space():
    return ParameterSpace([ContinuousDim("x", 0.0, 1.0)])


def make_kb(sim, network, space, policy, sites=("site-0", "site-1", "site-2")):
    kb = KnowledgeBase(sim, network, policy=policy)
    optimizers = {}
    for s in sites:
        opt = BayesianOptimizer(space, np.random.default_rng(hash(s) % 100),
                                n_init=4)
        kb.register(s, opt, space)
        optimizers[s] = opt
    return kb, optimizers


def test_policy_validation(sim, testbed_network):
    with pytest.raises(ValueError):
        KnowledgeBase(sim, testbed_network, policy="telepathy")


def test_duplicate_site_rejected(sim, testbed_network, space):
    kb, _ = make_kb(sim, testbed_network, space, "raw")
    with pytest.raises(ValueError):
        kb.register("site-0", None, space)


def test_none_policy_isolates_sites(sim, testbed_network, space):
    kb, opts = make_kb(sim, testbed_network, space, "none")
    kb.publish("site-0", {"x": 0.5}, 0.7)
    sim.run(until=10.0)
    assert kb.total_donations_at("site-1") == 0
    assert kb.sync("site-1") == 0


def test_raw_policy_propagates_with_latency(sim, testbed_network, space):
    kb, opts = make_kb(sim, testbed_network, space, "raw")
    kb.publish("site-0", {"x": 0.5}, 0.7)
    # Before the WAN latency elapses nothing has arrived.
    assert kb.total_donations_at("site-1") == 0
    sim.run(until=1.0)
    assert kb.total_donations_at("site-1") == 1
    assert kb.total_donations_at("site-2") == 1
    absorbed = kb.sync("site-1")
    assert absorbed == 1
    assert len(opts["site-1"]._external) == 1


def test_sync_absorbs_each_donation_once(sim, testbed_network, space):
    kb, opts = make_kb(sim, testbed_network, space, "raw")
    for i in range(5):
        kb.publish("site-0", {"x": 0.1 * i}, 0.5)
    sim.run(until=1.0)
    assert kb.sync("site-1") == 5
    assert kb.sync("site-1") == 0  # idempotent
    kb.publish("site-2", {"x": 0.9}, 0.2)
    sim.run(until=2.0)
    assert kb.sync("site-1") == 1
    assert len(opts["site-1"]._external) == 6


def test_corrected_policy_interleaved_sources_no_double_absorb(
        sim, testbed_network, space):
    kb, opts = make_kb(sim, testbed_network, space, "corrected")
    kb.publish("site-1", {"x": 0.2}, 0.5)
    kb.publish("site-2", {"x": 0.4}, 0.6)
    sim.run(until=1.0)
    assert kb.sync("site-0") == 2
    kb.publish("site-1", {"x": 0.6}, 0.7)
    sim.run(until=2.0)
    assert kb.sync("site-0") == 1
    assert len(opts["site-0"]._external) == 3


def test_corrected_policy_counts_each_donation_once(sim, testbed_network,
                                                   space):
    """Each node's corrected + passthrough count equals what it absorbed,
    however often it syncs."""
    kb, opts = make_kb(sim, testbed_network, space, "corrected")
    sites = sorted(kb.nodes)
    for r in range(6):
        for i, site in enumerate(sites):
            x = 0.1 + 0.12 * r + 0.01 * i
            kb.publish(site, {"x": x}, x - 0.1 * i)
        sim.run(until=r + 1.0)
        for site in sites:
            kb.sync(site)
            kb.sync(site)
    absorbed = 0
    for site in sites:
        stats = kb.nodes[site].adapter.stats
        assert stats["corrected"] + stats["passthrough"] == \
            len(opts[site]._external)
        absorbed += len(opts[site]._external)
    assert absorbed == kb.stats["absorbed"] == 6 * 3 * 2
    assert sum(kb.nodes[s].adapter.stats["corrected"] for s in sites) > 0


def test_corrected_policy_applies_bias_correction(sim, testbed_network,
                                                  space):
    kb, opts = make_kb(sim, testbed_network, space, "corrected")
    # site-0 observes truth f(x) = x locally; site-1 reads 0.2 low.
    for x in (0.1, 0.3, 0.5, 0.7):
        kb.publish("site-0", {"x": x}, x)         # local truth
        kb.publish("site-1", {"x": x}, x - 0.2)   # biased remote
    sim.run(until=5.0)
    kb.sync("site-0")
    # site-0's optimizer received site-1's donations corrected upward.
    donated = {p["x"]: v for p, v in opts["site-0"]._external}
    for x, v in donated.items():
        assert v == pytest.approx(x, abs=0.05)


def test_unreachable_peer_donation_lost(sim, testbed_topo, rngs, space):
    from repro.net import FaultInjector, Network
    faults = FaultInjector(sim)
    network = Network(sim, testbed_topo, rngs.stream("net"), faults)
    kb, _ = make_kb(sim, network, space, "raw")
    faults.fail_site("site-1")
    kb.publish("site-0", {"x": 0.5}, 0.7)
    sim.run(until=5.0)
    assert kb.total_donations_at("site-1") == 0
    assert kb.total_donations_at("site-2") == 1


def test_reasoning_traces_collected(sim, testbed_network, space):
    kb, _ = make_kb(sim, testbed_network, space, "raw")
    kb.publish("site-0", {"x": 0.5}, 0.7, trace="plan-1: BO argmax")
    kb.publish("site-1", {"x": 0.2}, 0.3, trace="plan-2: explore")
    traces = kb.reasoning_traces()
    assert len(traces) == 2
    assert any("BO argmax" in t for t in traces)


def test_ship_drops_only_network_failures(sim, testbed_network, space,
                                          monkeypatch):
    kb, _ = make_kb(sim, testbed_network, space, "raw")
    testbed_network.faults.fail_site("site-2")
    kb.publish("site-0", {"x": 0.5}, 0.7)
    sim.run(until=1.0)
    assert kb.total_donations_at("site-1") == 1
    assert kb.total_donations_at("site-2") == 0  # unreachable: dropped

    def broken_path(*args, **kwargs):
        raise RuntimeError("routing bug")

    monkeypatch.setattr(testbed_network.topology, "path", broken_path)
    with pytest.raises(RuntimeError, match="routing bug"):
        kb.publish("site-0", {"x": 0.1}, 0.2)
