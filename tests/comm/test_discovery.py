"""Tests for DNS-SD-style discovery."""

import pytest

from repro.comm import DnsSd, ServiceAnnouncement, ServiceRegistry


@pytest.fixture
def setup(sim, testbed_network):
    registry = ServiceRegistry(sim)
    daemons = {
        f"site-{i}": DnsSd(sim, testbed_network, registry,
                           registry_site="site-0", site=f"site-{i}",
                           cache_ttl_s=5.0)
        for i in range(5)
    }
    return registry, daemons


def announce(sim, daemon, instance, stype="_instrument._aisle", **caps):
    def proc():
        yield from daemon.announce(ServiceAnnouncement(
            instance=instance, service_type=stype, capabilities=caps))
    sim.process(proc())
    sim.run()


def test_announce_then_browse_cross_site(sim, setup):
    registry, daemons = setup
    announce(sim, daemons["site-1"], "xrd-1.site-1", technique="xrd")
    found = {}

    def browser():
        recs = yield from daemons["site-3"].browse("_instrument._aisle")
        found["recs"] = recs

    sim.process(browser())
    sim.run()
    assert [r.instance for r in found["recs"]] == ["xrd-1.site-1"]
    assert found["recs"][0].site == "site-1"


def test_browse_pays_wan_round_trip(sim, setup):
    _, daemons = setup
    announce(sim, daemons["site-1"], "svc-1")
    t0 = sim.now

    def browser():
        yield from daemons["site-3"].browse("_instrument._aisle")

    sim.process(browser())
    sim.run()
    assert sim.now - t0 >= 0.02  # at least one 20 ms WAN leg


def test_cache_serves_repeat_browse(sim, setup):
    _, daemons = setup
    announce(sim, daemons["site-1"], "svc-1")
    d = daemons["site-3"]

    def browser():
        yield from d.browse("_instrument._aisle")
        t_after_first = sim.now
        yield from d.browse("_instrument._aisle")
        assert sim.now == t_after_first  # served from cache, zero time

    sim.process(browser())
    sim.run()
    assert d.stats["cache_hits"] == 1


def test_cache_expires_after_ttl(sim, setup):
    _, daemons = setup
    announce(sim, daemons["site-1"], "svc-1")
    d = daemons["site-3"]

    def browser():
        yield from d.browse("_instrument._aisle")
        yield sim.timeout(10.0)  # > cache_ttl_s
        yield from d.browse("_instrument._aisle")

    sim.process(browser())
    sim.run()
    assert d.stats["cache_hits"] == 0


def test_capability_filter_applies_to_cached_results(sim, setup):
    _, daemons = setup
    announce(sim, daemons["site-1"], "xrd-1", technique="xrd")
    announce(sim, daemons["site-2"], "sem-1", technique="sem")
    d = daemons["site-3"]
    got = {}

    def browser():
        got["all"] = yield from d.browse("_instrument._aisle")
        got["xrd"] = yield from d.browse("_instrument._aisle",
                                         technique="xrd")

    sim.process(browser())
    sim.run()
    assert len(got["all"]) == 2
    assert [r.instance for r in got["xrd"]] == ["xrd-1"]


def test_subscription_invalidates_cache(sim, setup):
    registry, daemons = setup
    announce(sim, daemons["site-1"], "svc-1")
    d = daemons["site-3"]
    changes = []
    d.subscribe("_instrument._aisle", lambda ev, r: changes.append((ev, r.instance)))

    def browser():
        first = yield from d.browse("_instrument._aisle")
        assert len(first) == 1
        yield from daemons["site-2"].announce(ServiceAnnouncement(
            instance="svc-2", service_type="_instrument._aisle"))
        # cache was invalidated by the watch callback -> fresh browse
        second = yield from d.browse("_instrument._aisle")
        assert len(second) == 2

    sim.process(browser())
    sim.run()
    assert ("register", "svc-2") in changes


def test_withdraw_removes_service(sim, setup):
    registry, daemons = setup
    announce(sim, daemons["site-1"], "svc-1")

    def withdrawer():
        ok = yield from daemons["site-1"].withdraw("svc-1")
        assert ok

    sim.process(withdrawer())
    sim.run()
    assert len(registry) == 0


def test_keepalive_sustains_lease(sim, setup):
    registry, daemons = setup
    d = daemons["site-1"]

    def proc():
        yield from d.announce(ServiceAnnouncement(
            instance="svc-1", service_type="_instrument._aisle", ttl_s=30.0))

    sim.process(proc())
    sim.run()
    sim.process(d.keepalive("svc-1"))
    sim.run(until=100.0)
    assert registry.get("svc-1") is not None


def test_lease_lapses_without_keepalive(sim, setup):
    registry, daemons = setup
    announce(sim, daemons["site-1"], "svc-1")  # default ttl 60
    sim.run(until=120.0)
    assert registry.get("svc-1") is None


def test_resolve_single_instance(sim, setup):
    _, daemons = setup
    announce(sim, daemons["site-1"], "svc-1", technique="xrd")
    got = {}

    def proc():
        got["rec"] = yield from daemons["site-4"].resolve("svc-1")
        got["missing"] = yield from daemons["site-4"].resolve("ghost")

    sim.process(proc())
    sim.run()
    assert got["rec"].capabilities["technique"] == "xrd"
    assert got["missing"] is None
