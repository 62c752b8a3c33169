"""Tests for the agent runtime, messaging, heartbeats, and supervision."""

import pytest

from repro.agents import Agent, AgentRuntime, AgentState, Supervisor
from repro.comm import Performative


@pytest.fixture
def runtime(sim, testbed_network):
    return AgentRuntime(sim, testbed_network)


def test_agent_starts_and_heartbeats(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime, heartbeat_interval_s=2.0)
    a.start()
    sim.run(until=7.0)
    assert a.alive
    assert a.last_heartbeat == pytest.approx(6.0)


def test_double_start_rejected(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime).start()
    with pytest.raises(RuntimeError):
        a.start()


def test_message_dispatch_to_handler(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime).start()
    b = Agent(sim, "b1", "site-0", runtime).start()
    got = []
    b.on(Performative.INFORM, lambda msg: got.append(msg.payload))

    def proc():
        yield from a.send("b1", Performative.INFORM, payload="hello")

    sim.process(proc())
    sim.run(until=1.0)
    assert got == ["hello"]
    assert b.stats["handled"] == 1


def test_cross_site_message_pays_latency(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime).start()
    b = Agent(sim, "b1", "site-2", runtime).start()
    got = []
    b.on(Performative.INFORM, lambda msg: got.append(sim.now))

    def proc():
        yield from a.send("b1", Performative.INFORM, payload="x")

    sim.process(proc())
    sim.run(until=1.0)
    assert got and got[0] >= 0.02  # at least one WAN hop


def test_message_to_unknown_agent_dropped(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime).start()
    out = {}

    def proc():
        out["ok"] = yield from a.send("ghost", Performative.INFORM)

    sim.process(proc())
    # until=: the agent's heartbeat loop never drains the event queue.
    sim.run(until=1.0)
    assert out["ok"] is False
    assert runtime.stats["dropped"] == 1


def test_generator_handler_runs_as_subprocess(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime).start()
    trail = []

    def slow_handler(msg):
        yield sim.timeout(5.0)
        trail.append(("done", sim.now))

    a.on(Performative.REQUEST, slow_handler)

    def proc():
        yield from a.send("a1", Performative.REQUEST)

    sim.process(proc())
    sim.run(until=10.0)
    assert trail == [("done", pytest.approx(5.0))]


def test_crash_stops_heartbeats(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime, heartbeat_interval_s=1.0).start()
    sim.run(until=3.5)
    a.crash()
    hb_at_crash = a.last_heartbeat
    sim.run(until=10.0)
    assert a.state is AgentState.CRASHED
    assert a.last_heartbeat == hb_at_crash
    assert a.stats["crashes"] == 1


def test_restart_resumes_processing(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime, heartbeat_interval_s=1.0).start()
    a.crash()
    a.restart()
    sim.run(until=5.0)
    assert a.alive
    assert a.last_heartbeat > 0
    assert a.stats["restarts"] == 1


def test_stop_is_graceful_noop_when_not_running(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime)
    a.stop()  # never started: no-op
    a.start()
    a.stop()
    assert a.state is AgentState.STOPPED
    a.stop()  # idempotent


# -- supervisor -----------------------------------------------------------------

def test_supervisor_detects_and_restarts_crashed_agent(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime, heartbeat_interval_s=1.0).start()
    sup = Supervisor(sim, check_interval_s=1.0, restart_delay_s=5.0)
    sup.watch(a)
    sup.start()

    def killer():
        yield sim.timeout(10.0)
        a.crash()

    sim.process(killer())
    sim.run(until=30.0)
    assert a.alive
    assert sup.restart_count() == 1
    detected = sup.detection_time("a1")
    assert detected is not None and 10.0 <= detected <= 12.5


def test_supervisor_detects_hung_agent_via_heartbeat_silence(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime, heartbeat_interval_s=1.0).start()
    sup = Supervisor(sim, check_interval_s=1.0, timeout_multiplier=3.0,
                     restart_delay_s=2.0)
    sup.watch(a)
    sup.start()

    def hang():
        # Kill just the heartbeat loop, leaving the agent "running".
        yield sim.timeout(5.0)
        for proc in a._procs:
            proc.interrupt("hang")
        a._procs = []

    sim.process(hang())
    sim.run(until=30.0)
    assert sup.restart_count() >= 1
    assert a.alive


def test_supervisor_without_autorestart_only_detects(sim, runtime):
    a = Agent(sim, "a1", "site-0", runtime, heartbeat_interval_s=1.0).start()
    sup = Supervisor(sim, check_interval_s=1.0, auto_restart=False)
    sup.watch(a)
    sup.start()
    a.crash()
    sim.run(until=20.0)
    assert not a.alive
    assert sup.restart_count() == 0
    assert sup.detection_time("a1") is not None


def test_supervisor_rejects_negative_restart_delay(sim):
    with pytest.raises(ValueError):
        Supervisor(sim, restart_delay_s=-1.0)


def test_supervisor_double_start_rejected(sim):
    sup = Supervisor(sim)
    sup.start()
    with pytest.raises(RuntimeError):
        sup.start()
