"""Tests for heartbeat-driven failover."""

import pytest

from repro.comm import FailoverGroup, RpcClient, RpcServer
from repro.comm.failover import NoHealthyReplica


@pytest.fixture
def group(sim, testbed_network):
    replicas = []
    for i in range(3):
        srv = RpcServer(sim, f"broker-{i}", site=f"site-{i + 1}")
        srv.register("echo", lambda p: p)
        FailoverGroup.install_health_endpoint(srv)
        replicas.append(srv)
    return FailoverGroup(sim, replicas, heartbeat_interval_s=0.1,
                         heartbeat_misses=2)


@pytest.fixture
def client(sim, testbed_network):
    return RpcClient(sim, testbed_network, site="site-0")


def test_empty_group_rejected(sim):
    with pytest.raises(ValueError):
        FailoverGroup(sim, [])


def test_primary_is_first_replica(group):
    assert group.primary.name == "broker-0"


def test_monitor_promotes_on_primary_death(sim, group, client):
    group.start_monitor(client)

    def killer():
        yield sim.timeout(1.0)
        group.primary.kill()

    sim.process(killer())
    sim.run(until=3.0)
    assert group.primary.name == "broker-1"
    assert any(kind == "promote" for _, kind, _ in group.events)


def test_recovery_time_sub_second(sim, group, client):
    group.start_monitor(client)

    def killer():
        yield sim.timeout(1.0)
        group.primary.kill()

    sim.process(killer())
    sim.run(until=5.0)
    rt = group.recovery_time()
    assert rt is not None
    # M11: automatic failover well under a second with 100 ms heartbeats.
    assert rt < 1.0


def test_recovery_time_after_planned_switchover(sim, group, client):
    """A planned promote_next has no miss before it: the outage that
    counts is the kill of the new primary, from its first miss."""
    group.promote_next()              # planned switchover at t=0
    group.start_monitor(client)

    def killer():
        yield sim.timeout(1.0)
        group.primary.kill()          # broker-1, the new primary

    sim.process(killer())
    sim.run(until=3.0)
    kinds = [(kind, name) for _, kind, name in group.events]
    assert kinds[0] == ("promote", "broker-1")
    assert kinds[-1] == ("promote", "broker-2")
    misses = [t for t, kind, _ in group.events if kind == "miss"]
    assert misses and min(misses) > 1.0
    rt = group.recovery_time()
    assert rt == group.events[-1][0] - min(misses)
    assert 0.0 < rt < 1.0


def test_recovery_time_is_none_without_an_outage(sim, group):
    group.promote_next()
    assert group.recovery_time() is None


def test_all_replicas_down_raises(group):
    for r in group.replicas:
        r.kill()
    with pytest.raises(NoHealthyReplica):
        group.promote_next()
    assert group.primary.name == "broker-0"   # no promotion recorded
    assert group.events == []


def test_promote_skips_dead_standby(sim, group, client):
    group.replicas[1].kill()
    group.replicas[0].kill()
    promoted = group.promote_next()
    assert promoted.name == "broker-2"


def test_monitor_stops_when_everything_down(sim, group, client):
    group.start_monitor(client)

    def killer():
        yield sim.timeout(0.5)
        for r in group.replicas:
            r.kill()

    sim.process(killer())
    sim.run(until=10.0)
    assert any(kind == "all-down" for _, kind, _ in group.events)
