"""Generated chaos storms on the RPC path: typed failures, never a hang.

Each storm is a ``national_lab_testbed`` of 3-6 sites with lossy links,
up to eight :class:`ChaosController` faults at generated times, and a
caller per site making 1-6 RPC calls with generated deadlines, retries
and backoff.  Whatever the storm, ``sim.run`` raises nothing, every
caller finishes, and every call ends — in its result, ``RpcTimeout`` or
``RpcError`` — no later than its deadline.
"""

from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.comm import RpcClient, RpcError, RpcServer, RpcTimeout
from repro.net import FaultInjector, Network, Topology
from repro.resilience import ChaosController
from repro.sim import RngRegistry, Simulator


@dataclass(frozen=True)
class Fault:
    kind: str              # a ChaosController method
    a: int                 # first site (or the site for fail_site)
    b: int                 # second site; partition: a bit mask of group A
    at_s: float
    duration_s: "float | None"
    extra_loss: float = 1.0


@dataclass(frozen=True)
class Call:
    target: int
    method: str            # "echo" returns the payload, "boom" raises
    deadline_s: float
    retries: int
    backoff_s: float
    gap_s: float           # think time before the call


@dataclass(frozen=True)
class Storm:
    n_sites: int
    loss: float
    faults: tuple
    calls: tuple           # per site, a tuple of Call
    seed: int


def _topology(storm):
    return Topology.national_lab_testbed(storm.n_sites,
                                         loss_prob=storm.loss)


_times = st.sampled_from([0.0, 0.005, 0.02, 0.05, 0.1, 0.3, 1.0])


@st.composite
def storms(draw):
    n = draw(st.integers(3, 6))
    loss = draw(st.sampled_from([0.0, 0.01, 0.2]))
    links = Topology.national_lab_testbed(n).links()
    faults = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["cut_link", "fail_site", "partition",
                                     "degrade_link"]))
        if kind in ("cut_link", "degrade_link"):
            a, b, _ = draw(st.sampled_from(links))
            a, b = int(a.split("-")[1]), int(b.split("-")[1])
        elif kind == "fail_site":
            a, b = draw(st.integers(0, n - 1)), 0
        else:
            a, b = 0, draw(st.integers(1, 2 ** n - 2))
        faults.append(Fault(
            kind, a, b, at_s=draw(_times),
            duration_s=draw(st.none() | st.sampled_from([0.01, 0.1, 0.5])),
            extra_loss=draw(st.sampled_from([0.2, 0.5, 1.0]))))
    call = st.builds(
        Call, target=st.integers(0, n - 1),
        method=st.sampled_from(["echo", "echo", "echo", "boom"]),
        deadline_s=st.sampled_from([0.05, 0.2, 1.0]),
        retries=st.integers(0, 4),
        backoff_s=st.sampled_from([0.0, 0.01, 0.1]),
        gap_s=st.sampled_from([0.0, 0.01, 0.1]))
    calls = tuple(tuple(draw(st.lists(call, min_size=1, max_size=6)))
                  for _ in range(n))
    return Storm(n, loss, tuple(faults), calls,
                 seed=draw(st.integers(0, 2 ** 16)))


def _schedule(chaos, storm):
    site = "site-{}".format
    for f in storm.faults:
        when = dict(at_s=f.at_s, duration_s=f.duration_s)
        if f.kind == "cut_link":
            chaos.cut_link(site(f.a), site(f.b), **when)
        elif f.kind == "degrade_link":
            chaos.degrade_link(site(f.a), site(f.b),
                               extra_loss=f.extra_loss, **when)
        elif f.kind == "fail_site":
            chaos.fail_site(site(f.a), **when)
        else:
            group_a = [site(i) for i in range(storm.n_sites) if f.b >> i & 1]
            group_b = [site(i) for i in range(storm.n_sites)
                       if not f.b >> i & 1]
            chaos.partition(group_a, group_b, **when)


def _boom(payload):
    raise ValueError("handler failed")


def _run_storm(storm):
    """Run ``storm``; returns its outcome rows and caller processes."""
    sim = Simulator()
    faults = FaultInjector(sim)
    network = Network(sim, _topology(storm),
                      RngRegistry(storm.seed).stream("net"), faults)
    _schedule(ChaosController(sim, faults), storm)
    servers = []
    for i in range(storm.n_sites):
        server = RpcServer(sim, f"srv-{i}", site=f"site-{i}")
        server.register("echo", lambda payload: payload)
        server.register("boom", _boom)
        servers.append(server)
    rows = []

    def caller(i, plan):
        client = RpcClient(sim, network, site=f"site-{i}",
                           identity=f"agent-{i}")
        for k, c in enumerate(plan):
            if c.gap_s:
                yield sim.timeout(c.gap_s)
            start = sim.now
            payload = {"site": i, "seq": k}
            try:
                result = yield from client.call(
                    servers[c.target], c.method, payload,
                    deadline_s=c.deadline_s, retries=c.retries,
                    backoff_s=c.backoff_s)
                outcome = "ok" if result == payload else f"wrong {result!r}"
            except RpcTimeout:
                outcome = "timeout"
            except RpcError:
                outcome = "error"
            rows.append((c, outcome, start, sim.now))

    callers = [sim.process(caller(i, plan))
               for i, plan in enumerate(storm.calls)]
    horizon = 1.0 + max(sum(c.gap_s + c.deadline_s for c in plan)
                        for plan in storm.calls)
    sim.run(until=horizon)
    return rows, callers


# A storm that crashed sim.run() before the deadline defused the event an
# abandoned attempt was waiting on: site-0's first request is dropped, the
# retry's response leaves after the link degrades again and is still in
# flight when the 50 ms deadline fires; its PacketLost came after that.
@example(Storm(3, 0.0,
               (Fault("degrade_link", 0, 1, 0.0, 0.01),
                Fault("degrade_link", 0, 1, 0.03, None)),
               ((Call(1, "echo", 0.05, 1, 0.0, 0.0),),
                (Call(1, "echo", 0.05, 0, 0.0, 0.0),),
                (Call(2, "boom", 0.05, 0, 0.0, 0.0),)),
               seed=0))
@given(storms())
@settings(max_examples=120, deadline=None)
def test_property_rpc_calls_end_typed_within_deadline_under_storms(storm):
    rows, callers = _run_storm(storm)
    assert not any(proc.is_alive for proc in callers)
    assert len(rows) == sum(len(plan) for plan in storm.calls)
    for call, outcome, start, end in rows:
        allowed = {"ok", "timeout"} if call.method == "echo" \
            else {"error", "timeout"}
        assert outcome in allowed, (call, outcome)
        assert end <= start + call.deadline_s + 1e-9, (call, start, end)
