"""E5 (milestone M12): self-discovering agent networks.

Paper target: "self-discovering agent networks using DNS-SD and
distributed service registries, enabling dynamic reconfiguration and
capability negotiation in geographically distributed research facilities".

Three measurements, swept over federation size:

1. announce -> cross-site visibility latency;
2. browse latency, cold vs cached;
3. dynamic reconfiguration: an instrument is withdrawn and replaced by a
   different vendor's unit — time until a remote agent has renegotiated
   a protocol agreement with the replacement.
"""

from benchmarks.conftest import fmt, report
from repro.comm import (CapabilityOffer, DnsSd, Negotiator, RpcClient,
                        RpcServer, ServiceAnnouncement, ServiceRegistry)
from repro.net import FaultInjector, Network, Topology
from repro.sim import RngRegistry, Simulator

FLEET_SIZES = (10, 50, 200)


def _world(n_sites=5, seed=3):
    sim = Simulator()
    rngs = RngRegistry(seed)
    topo = Topology.national_lab_testbed(n_sites, latency_s=0.02,
                                         jitter_s=0.002)
    net = Network(sim, topo, rngs.stream("net"), FaultInjector(sim))
    registry = ServiceRegistry(sim)
    daemons = {f"site-{i}": DnsSd(sim, net, registry, "site-0",
                                  f"site-{i}", cache_ttl_s=5.0)
               for i in range(n_sites)}
    return sim, rngs, net, registry, daemons


def _measure_fleet(n_services: int):
    sim, rngs, net, registry, daemons = _world()
    sites = sorted(daemons)

    # Announce the fleet round-robin across sites.
    def announce_all():
        for i in range(n_services):
            d = daemons[sites[i % len(sites)]]
            yield from d.announce(ServiceAnnouncement(
                instance=f"inst-{i}", service_type="_instrument._aisle",
                capabilities={"technique": ["xrd", "pl", "sem"][i % 3]},
                ttl_s=1e9))

    t0 = sim.now
    proc = sim.process(announce_all())
    sim.run(until=proc)
    announce_total = sim.now - t0

    # Cold and cached browse from a remote site.
    times = {}

    def browse_twice():
        t0 = sim.now
        recs = yield from daemons["site-3"].browse("_instrument._aisle")
        times["cold"] = sim.now - t0
        times["n"] = len(recs)
        t1 = sim.now
        yield from daemons["site-3"].browse("_instrument._aisle",
                                            technique="pl")
        times["cached"] = sim.now - t1

    proc = sim.process(browse_twice())
    sim.run(until=proc)
    return announce_total / n_services, times


def _reconfiguration_time():
    """Instrument swap: withdraw, replace with new vendor, renegotiate."""
    sim, rngs, net, registry, daemons = _world()
    initiator_offer = CapabilityOffer(
        protocols={"grpc": [3, 2], "amqp": [1]})
    replacement_offer = CapabilityOffer(protocols={"grpc": [2]})

    out = {}

    def lifecycle():
        # Original unit online.
        yield from daemons["site-1"].announce(ServiceAnnouncement(
            instance="xrd-old", service_type="_instrument._aisle",
            capabilities={"vendor": "kelvin-sci"}, ttl_s=1e9))
        # Swap: withdraw old, announce replacement from a new vendor.
        t_swap = sim.now
        yield from daemons["site-1"].withdraw("xrd-old")
        yield from daemons["site-1"].announce(ServiceAnnouncement(
            instance="xrd-new", service_type="_instrument._aisle",
            capabilities={"vendor": "helios"}, ttl_s=1e9))
        # A remote agent notices (cache invalidated by subscription),
        # rediscovers, and renegotiates.
        agent_daemon = daemons["site-3"]
        events = []
        agent_daemon.subscribe("_instrument._aisle",
                               lambda ev, rec: events.append(ev))
        recs = yield from agent_daemon.browse("_instrument._aisle",
                                              use_cache=False)
        server = RpcServer(sim, recs[0].instance, site="site-1")
        responder = Negotiator(sim, replacement_offer)
        responder.serve(server)
        client = RpcClient(sim, net, site="site-3")
        negotiator = Negotiator(sim, initiator_offer)
        agreement = yield from negotiator.negotiate(client, server)
        out["reconfig_s"] = sim.now - t_swap
        out["agreement"] = agreement

    proc = sim.process(lifecycle())
    sim.run(until=proc)
    return out


def test_e05_discovery(bench_once):
    def scenario():
        fleet = {n: _measure_fleet(n) for n in FLEET_SIZES}
        reconfig = _reconfiguration_time()
        return fleet, reconfig

    fleet, reconfig = bench_once(scenario)
    rows = []
    for n in FLEET_SIZES:
        per_announce, times = fleet[n]
        rows.append([n, fmt(1000 * per_announce, 1),
                     fmt(1000 * times["cold"], 1),
                     fmt(1000 * times["cached"], 3), times["n"]])
    report(
        "E5: DNS-SD service discovery vs fleet size (M12)",
        ["services", "announce (ms/svc)", "cold browse (ms)",
         "cached browse (ms)", "found"],
        rows)
    report(
        "E5b: dynamic reconfiguration after instrument swap",
        ["reconfig time (s)", "protocol", "version", "rounds"],
        [[fmt(reconfig["reconfig_s"], 3), reconfig["agreement"].protocol,
          reconfig["agreement"].version, reconfig["agreement"].rounds]])

    for n in FLEET_SIZES:
        _, times = fleet[n]
        assert times["n"] == n               # everything discoverable
        assert times["cold"] < 1.0           # sub-second discovery
        assert times["cached"] == 0.0        # cache serves instantly
    assert reconfig["reconfig_s"] < 2.0      # swap-to-renegotiated < 2 s
    assert reconfig["agreement"].version == 2  # common grpc version
