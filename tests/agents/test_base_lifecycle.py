"""Tests for agent heartbeats, crash/restart, and supervision."""

import pytest

from repro.agents import Agent, AgentState, Supervisor


def make_agent(sim, heartbeat_interval_s):
    a = Agent(sim, "a1", "site-0")
    a.heartbeat_interval_s = heartbeat_interval_s
    return a


def test_agent_starts_and_heartbeats(sim):
    a = make_agent(sim, 2.0)
    a.start()
    sim.run(until=7.0)
    assert a.alive
    assert a.last_heartbeat == pytest.approx(6.0)


def test_double_start_rejected(sim):
    a = Agent(sim, "a1", "site-0").start()
    with pytest.raises(RuntimeError):
        a.start()


def test_crash_stops_heartbeats(sim):
    a = make_agent(sim, 1.0).start()
    sim.run(until=3.5)
    a.crash()
    hb_at_crash = a.last_heartbeat
    sim.run(until=10.0)
    assert a.state is AgentState.CRASHED
    assert a.last_heartbeat == hb_at_crash
    assert a.stats["crashes"] == 1


def test_restart_resumes_processing(sim):
    a = make_agent(sim, 1.0).start()
    a.crash()
    a.restart()
    sim.run(until=5.0)
    assert a.alive
    assert a.last_heartbeat > 0
    assert a.stats["restarts"] == 1


# -- supervisor -----------------------------------------------------------------

def test_supervisor_detects_and_restarts_crashed_agent(sim):
    a = make_agent(sim, 1.0).start()
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


def test_supervisor_detects_hung_agent_via_heartbeat_silence(sim):
    a = make_agent(sim, 1.0).start()
    sup = Supervisor(sim, check_interval_s=1.0, restart_delay_s=2.0)
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


def test_supervisor_without_autorestart_only_detects(sim):
    a = make_agent(sim, 1.0).start()
    sup = Supervisor(sim, check_interval_s=1.0)
    sup.auto_restart = False
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
