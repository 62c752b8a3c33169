"""Tests for the service registry."""

from repro.comm import ServiceRecord, ServiceRegistry


def rec(instance="xrd-1", stype="_instrument._aisle", site="a", ttl=60.0,
        **caps):
    return ServiceRecord(instance=instance, service_type=stype, site=site,
                         capabilities=caps, ttl_s=ttl)


def test_register_and_lookup(sim):
    reg = ServiceRegistry(sim)
    reg.register(rec("xrd-1", technique="xrd"))
    reg.register(rec("sem-1", technique="sem"))
    found = reg.lookup("_instrument._aisle")
    assert [r.instance for r in found] == ["sem-1", "xrd-1"]


def test_lookup_by_capability(sim):
    reg = ServiceRegistry(sim)
    reg.register(rec("xrd-1", technique="xrd", resolution=0.1))
    reg.register(rec("xrd-2", technique="xrd", resolution=0.5))
    found = reg.lookup("_instrument._aisle", technique="xrd",
                       resolution=lambda r: r <= 0.2)
    assert [r.instance for r in found] == ["xrd-1"]


def test_missing_capability_never_matches(sim):
    reg = ServiceRegistry(sim)
    reg.register(rec("plain"))
    assert reg.lookup("_instrument._aisle", technique="xrd") == []


def test_ttl_expiry(sim):
    reg = ServiceRegistry(sim)
    reg.register(rec("short", ttl=10.0))
    sim.run(until=5.0)
    assert len(reg) == 1
    sim.run(until=15.0)
    assert len(reg) == 0
    assert reg.stats["expirations"] == 1


def test_renew_extends_lease(sim):
    reg = ServiceRegistry(sim)
    reg.register(rec("svc", ttl=10.0))
    sim.run(until=8.0)
    assert reg.renew("svc")
    sim.run(until=15.0)
    assert reg.get("svc") is not None
    sim.run(until=20.0)
    assert reg.get("svc") is None


def test_renew_expired_record_fails(sim):
    reg = ServiceRegistry(sim)
    reg.register(rec("svc", ttl=5.0))
    sim.run(until=10.0)
    assert not reg.renew("svc")


def test_deregister(sim):
    reg = ServiceRegistry(sim)
    reg.register(rec("svc"))
    assert reg.deregister("svc")
    assert not reg.deregister("svc")
    assert len(reg) == 0


def test_watchers_fire_on_changes(sim):
    reg = ServiceRegistry(sim)
    events = []
    unsub = reg.watch(lambda ev, r: events.append((ev, r.instance)))
    reg.register(rec("a"))
    reg.deregister("a")
    unsub()
    reg.register(rec("b"))
    assert events == [("register", "a"), ("deregister", "a")]


def test_watcher_type_filter(sim):
    reg = ServiceRegistry(sim)
    events = []
    reg.watch(lambda ev, r: events.append(r.instance),
              service_type="_data._aisle")
    reg.register(rec("inst-1", stype="_instrument._aisle"))
    reg.register(rec("node-1", stype="_data._aisle"))
    assert events == ["node-1"]


def test_watcher_fires_on_expiry(sim):
    reg = ServiceRegistry(sim)
    events = []
    reg.watch(lambda ev, r: events.append(ev))
    reg.register(rec("svc", ttl=1.0))
    sim.run(until=2.0)
    reg.lookup()  # sweep
    assert events == ["register", "expire"]


def test_types_enumeration(sim):
    reg = ServiceRegistry(sim)
    reg.register(rec("a", stype="_x._aisle"))
    reg.register(rec("b", stype="_y._aisle"))
    assert reg.types() == ["_x._aisle", "_y._aisle"]
