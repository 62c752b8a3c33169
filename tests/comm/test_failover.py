"""Tests for heartbeat-driven failover."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.comm import FailoverGroup, RpcClient, RpcServer
from repro.comm.failover import NoHealthyReplica
from repro.comm.rpc import RpcTimeout, ServerDown
from repro.net import FaultInjector, Network, Topology
from repro.net.transport import NetworkError
from repro.resilience import CircuitBreaker, CircuitState
from repro.sim import RngRegistry, Simulator


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


def test_second_monitor_start_rejected(sim, group, client):
    """A second monitor would probe beside the first, so two misses would
    land within one interval and promote after half the outage."""
    group.start_monitor(client)
    with pytest.raises(RuntimeError, match="already started"):
        group.start_monitor(client)

    def killer():
        yield sim.timeout(1.0)
        group.primary.kill()

    sim.process(killer())
    sim.run(until=3.0)
    misses = [t for t, kind, _ in group.events if kind == "miss"]
    promote = next(t for t, kind, _ in group.events if kind == "promote")
    before = [t for t in misses if t <= promote]
    assert len(before) == group.heartbeat_misses
    assert before[1] - before[0] >= group.heartbeat_interval_s


def test_heartbeat_misses_below_one_rejected(sim):
    with pytest.raises(ValueError):
        FailoverGroup(sim, [RpcServer(sim, "r", site="site-1")],
                      heartbeat_misses=0)


# -- generated kill/revive schedules against the breaker-driven monitor -----

class _BreakerMonitor:
    """The heartbeat monitor as FailoverGroup once ran it: one
    CircuitBreaker per replica, tripped after ``misses`` consecutive
    missed probes and quarantined for ten heartbeat intervals; a probe
    miss promotes whenever the primary's breaker then reads OPEN."""

    def __init__(self, sim, replicas, interval, misses):
        self.sim, self.replicas, self.interval = sim, replicas, interval
        self.breakers = {
            r.name: CircuitBreaker(sim, failure_threshold=misses,
                                   recovery_time_s=10.0 * interval)
            for r in replicas}
        self.primary_idx = 0
        self.events = []

    def promote_next(self):
        for offset in range(1, len(self.replicas) + 1):
            idx = (self.primary_idx + offset) % len(self.replicas)
            if self.replicas[idx].alive:
                self.primary_idx = idx
                self.events.append(
                    (self.sim.now, "promote", self.replicas[idx].name))
                return
        raise NoHealthyReplica("all replicas down")

    def run(self, client):
        while True:
            yield self.sim.timeout(self.interval)
            primary = self.replicas[self.primary_idx]
            breaker = self.breakers[primary.name]
            try:
                yield from client.call(primary, "_health", None,
                                       deadline_s=max(0.2, self.interval),
                                       retries=0)
                breaker.record_success()
            except (RpcTimeout, ServerDown, NetworkError, KeyError):
                self.events.append((self.sim.now, "miss", primary.name))
                breaker.record_failure()
                if breaker.state is CircuitState.OPEN:
                    try:
                        self.promote_next()
                    except NoHealthyReplica:
                        self.events.append((self.sim.now, "all-down", ""))
                        return


def _failover_world(n_replicas, schedule):
    sim = Simulator()
    topo = Topology.national_lab_testbed(5, latency_s=0.02, jitter_s=0.0)
    network = Network(sim, topo, RngRegistry(12345).stream("net"),
                      FaultInjector(sim))
    replicas = []
    for i in range(n_replicas):
        srv = RpcServer(sim, f"broker-{i}", site=f"site-{i + 1}")
        FailoverGroup.install_health_endpoint(srv)
        replicas.append(srv)

    def chaos():
        # Each entry toggles one replica: kill it if alive, else revive it.
        now = 0.0
        for at, idx in sorted(schedule):
            yield sim.timeout(at - now)
            now = at
            if replicas[idx].alive:
                replicas[idx].kill()
            else:
                replicas[idx].revive()

    sim.process(chaos())
    return sim, replicas, RpcClient(sim, network, site="site-0")


def _toggles(n, interval):
    """Kill/revive toggles, each a small multiple of the heartbeat interval
    after the one before and aimed at the replica toggled last or at the
    next one in failover order, so outages chase promotions: a replica
    often dies again within a probe or two of being promoted back."""
    step = st.tuples(st.sampled_from((1, 2, 2.5, 3, 4, 12)),
                     st.sampled_from((0, 1, 1)))

    def schedule(steps):
        out, at, idx = [], 0.0, 0
        for i, (intervals, hop) in enumerate(steps):
            at += intervals * interval
            idx = (idx + hop) % n if i else 0
            out.append((at, idx))
        return out

    return st.lists(step, min_size=4, max_size=16).map(schedule)


_schedules = st.integers(2, 4).flatmap(
    lambda n: st.sampled_from((0.05, 0.1, 0.2, 0.5)).flatmap(
        lambda interval: st.tuples(st.just(n), st.just(interval),
                                   st.integers(1, 3),
                                   _toggles(n, interval))))


@given(_schedules)
@settings(max_examples=300, deadline=None)
# broker-0 trips, revives and is promoted back once broker-1 trips; it
# dies again before its first probe, so one miss (its breaker aged into
# half-open) must take the group to all-down.
@example((2, 0.1, 2, [(1.0, 0), (2.0, 0), (3.0, 1), (3.25, 0)]))
def test_property_miss_count_monitor_matches_breaker_monitor(case):
    """Over generated kill/revive schedules, the miss-count monitor logs
    the same misses, promotions and all-down as the breaker monitor it
    replaced: revivals, repeated trips and breakers aged into half-open
    included."""
    n, interval, misses, schedule = case
    sim, replicas, client = _failover_world(n, schedule)
    group = FailoverGroup(sim, replicas, heartbeat_interval_s=interval,
                          heartbeat_misses=misses)
    group.start_monitor(client)
    sim.run(until=30.0)

    ref_sim, ref_replicas, ref_client = _failover_world(n, schedule)
    ref = _BreakerMonitor(ref_sim, ref_replicas, interval, misses)
    ref_sim.process(ref.run(ref_client))
    ref_sim.run(until=30.0)
    assert group.events == ref.events
