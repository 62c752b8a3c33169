"""Tests for the gRPC-style RPC layer."""

import pytest

from repro.comm import RpcClient, RpcError, RpcServer, RpcTimeout
from repro.comm.rpc import ServerDown


@pytest.fixture
def server(sim):
    srv = RpcServer(sim, "calc", site="b", handler_delay_s=0.001)
    srv.register("add", lambda p: p["x"] + p["y"])
    return srv


@pytest.fixture
def client(sim, network):
    return RpcClient(sim, network, site="a", identity="tester")


def run(sim, gen):
    out = {}

    def proc():
        out["result"] = yield from gen
    sim.process(proc())
    sim.run()
    return out.get("result")


def test_basic_call(sim, server, client):
    result = run(sim, client.call(server, "add", {"x": 2, "y": 3}))
    assert result == 5
    assert client.stats["calls"] == 1
    assert client.mean_latency() > 0.02  # two WAN hops at 10 ms each


def test_unknown_method_raises_rpc_error(sim, server, client):
    def proc():
        with pytest.raises(RpcError, match="no such method"):
            yield from client.call(server, "nope")
    sim.process(proc())
    sim.run()
    assert client.stats["failures"] == 1
    assert client.stats["timeouts"] == 0


def test_handler_exception_wrapped(sim, server, client):
    server.register("boom", lambda p: 1 / 0)

    def proc():
        with pytest.raises(RpcError, match="boom failed"):
            yield from client.call(server, "boom")
    sim.process(proc())
    sim.run()
    assert server.stats["errors"] == 1
    assert client.stats["failures"] == 1
    assert client.stats["timeouts"] == 0


def test_generator_handler_spends_sim_time(sim, server, client):
    def slow_handler(payload):
        yield sim.timeout(1.0)
        return "slow-done"
    server.register("slow", slow_handler)
    result = run(sim, client.call(server, "slow"))
    assert result == "slow-done"
    assert sim.now > 1.0


def test_deadline_timeout(sim, server, client):
    def stuck_handler(payload):
        yield sim.timeout(100.0)
        return "never"
    server.register("stuck", stuck_handler)

    observed = {}

    def proc():
        with pytest.raises(RpcTimeout):
            yield from client.call(server, "stuck", deadline_s=0.5)
        observed["t"] = sim.now
    sim.process(proc())
    sim.run()
    assert client.stats["timeouts"] == 1
    assert client.stats["failures"] == 0
    # The client observed the timeout at the deadline, even though the
    # abandoned server-side handler kept running in simulated time.
    assert observed["t"] == pytest.approx(0.5, abs=0.01)


def test_dead_server_raises(sim, server, client):
    server.kill()

    def proc():
        with pytest.raises((ServerDown, RpcTimeout)):
            yield from client.call(server, "add", {"x": 1, "y": 1},
                                   deadline_s=0.5, retries=0)
    sim.process(proc())
    sim.run()


def test_retry_succeeds_after_transient_loss(sim, two_site_topo, rngs, server):
    # Degrade the link so that early attempts are lost, then heal it.
    from repro.net import FaultInjector, Network
    faults = FaultInjector(sim)
    net = Network(sim, two_site_topo, rngs.stream("net"), faults)
    client = RpcClient(sim, net, site="a")
    faults.degrade_link("a", "b", extra_loss=1.0, duration=0.06)

    result = run(sim, client.call(server, "add", {"x": 4, "y": 4},
                                  deadline_s=5.0, retries=5, backoff_s=0.05))
    assert result == 8
    assert client.stats["retries"] >= 1


def test_retries_exhausted_raises_timeout(sim, two_site_topo, rngs, server):
    from repro.net import FaultInjector, Network
    faults = FaultInjector(sim)
    net = Network(sim, two_site_topo, rngs.stream("net"), faults)
    client = RpcClient(sim, net, site="a")
    faults.degrade_link("a", "b", extra_loss=1.0)  # permanent

    def proc():
        with pytest.raises(RpcTimeout):
            yield from client.call(server, "add", {"x": 1, "y": 1},
                                   deadline_s=1.0, retries=2)
    sim.process(proc())
    sim.run()


def _timed_out_at(sim, gen):
    """Run ``gen`` to its RpcTimeout and the kernel to exhaustion."""
    observed = {}

    def proc():
        with pytest.raises(RpcTimeout):
            yield from gen
        observed["t"] = sim.now
    sim.process(proc())
    sim.run()
    return observed["t"]


def test_deadline_abandons_a_transfer_that_fails_later(sim, network, server,
                                                       client):
    # Regression: the deadline (5 ms) fires while the request is in flight
    # on a 10 ms link that drops it.  The attempt was abandoned, but the
    # dropped transfer's PacketLost at t=0.01 crashed sim.run().
    network.faults.degrade_link("a", "b", extra_loss=1.0)
    t = _timed_out_at(sim, client.call(server, "add", 1, deadline_s=0.005,
                                       retries=0))
    assert t == pytest.approx(0.005)
    assert sim.now > 0.01
    assert network.stats["lost"] == 1
    assert client.stats["timeouts"] == 1


def test_deadline_abandons_a_dispatch_that_fails_later(sim, server, client):
    # The same for the server's dispatch process: its RpcError, raised
    # after the caller timed out, has no one left to deliver it to.
    def late_failure(payload):
        yield sim.timeout(0.05)
        raise ValueError("too late")
    server.register("late", late_failure)
    t = _timed_out_at(sim, client.call(server, "late", deadline_s=0.03,
                                       retries=0))
    assert t == pytest.approx(0.03)
    assert server.stats["errors"] == 1


def test_method_decorator(sim, server, client):
    @server.method("mul")
    def mul(p):
        return p["x"] * p["y"]

    assert run(sim, client.call(server, "mul", {"x": 3, "y": 4})) == 12


def test_latency_stats_accumulate(sim, server, client):
    def proc():
        for _ in range(3):
            yield from client.call(server, "add", {"x": 1, "y": 1})
    sim.process(proc())
    sim.run()
    assert len(client.latencies) == 3
    assert client.stats["total_latency"] == pytest.approx(sum(client.latencies))


# -- per-client call ids (regression) ------------------------------------------

class _CapturingGateway:
    """Fake zero-trust gateway recording each request's conversation id."""

    def __init__(self):
        self.conversation_ids = []

    def verify(self, env, action=""):
        self.conversation_ids.append(env.message.conversation_id)
        return 0.0


def test_call_ids_are_per_client_not_module_global(sim, network, server):
    # Two clients built in the same process must both stamp conversation
    # ids starting at 1 (a module-global counter would leak state from
    # one world into the next and break same-seed trace equality).
    gw1, gw2 = _CapturingGateway(), _CapturingGateway()
    c1 = RpcClient(sim, network, site="a", identity="tester", gateway=gw1)
    run(sim, c1.call(server, "add", {"x": 1, "y": 1}))
    run(sim, c1.call(server, "add", {"x": 1, "y": 2}))
    c2 = RpcClient(sim, network, site="a", identity="tester", gateway=gw2)
    run(sim, c2.call(server, "add", {"x": 1, "y": 3}))
    assert gw1.conversation_ids == ["tester/1", "tester/2"]
    assert gw2.conversation_ids == ["tester/1"]
