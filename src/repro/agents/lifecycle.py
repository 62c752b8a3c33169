"""Agent lifecycle supervision: heartbeats and automatic restart (M3).

"Adaptive fault-tolerant coordination mechanisms" start with noticing
that an agent died.  The :class:`Supervisor` watches heartbeats and
restarts agents whose beacons go silent — the agent-level half of E11's
fault-tolerance story (the instrument-level half lives in
:mod:`repro.core.faulttol`).  Every restart waits a fixed
``restart_delay_s``, however often the agent has crashed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.agents.base import Agent, AgentState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class Supervisor:
    """Heartbeat watchdog with automatic restart.

    Parameters
    ----------
    sim:
        Kernel.
    check_interval_s:
        Watchdog sweep period.
    restart_delay_s:
        Time to re-provision a crashed agent; every restart waits this
        long, and an agent is restarted as often as it dies.
    """

    #: An agent is declared dead after
    #: ``TIMEOUT_MULTIPLIER * heartbeat_interval_s`` of silence.
    TIMEOUT_MULTIPLIER = 3.0
    #: Set to ``False`` to measure the no-fault-tolerance baseline.
    auto_restart = True

    def __init__(self, sim: "Simulator", *, check_interval_s: float = 5.0,
                 restart_delay_s: float = 30.0) -> None:
        if restart_delay_s < 0:
            raise ValueError("restart_delay_s must be >= 0")
        self.sim = sim
        self.check_interval_s = check_interval_s
        self.restart_delay_s = float(restart_delay_s)
        self._watched: list[Agent] = []
        self._restarting: set[str] = set()
        self.events: list[tuple[float, str, str]] = []
        self._proc = None

    def watch(self, agent: Agent) -> None:
        self._watched.append(agent)

    def start(self) -> None:
        if self._proc is not None:
            raise RuntimeError("supervisor already started")
        self._proc = self.sim.process(self._run())

    def _deadline(self, agent: Agent) -> float:
        return agent.heartbeat_interval_s * self.TIMEOUT_MULTIPLIER

    def _run(self):
        while True:
            yield self.sim.timeout(self.check_interval_s)
            now = self.sim.now
            for agent in self._watched:
                if agent.name in self._restarting:
                    continue
                silent_for = now - max(agent.last_heartbeat, 0.0)
                dead = (agent.state is AgentState.CRASHED
                        or (agent.state is AgentState.RUNNING
                            and silent_for > self._deadline(agent)))
                if dead:
                    self.events.append((now, "detected-dead", agent.name))
                    if self.auto_restart:
                        self._restarting.add(agent.name)
                        self.sim.process(self._restart(agent))

    def _restart(self, agent: Agent):
        yield self.sim.timeout(self.restart_delay_s)
        if agent.state is AgentState.RUNNING:
            # Hung but nominally running (heartbeats silent): kill first.
            agent.crash()
        agent.restart()
        self.events.append((self.sim.now, "restarted", agent.name))
        self._restarting.discard(agent.name)

    def detection_time(self, agent_name: str) -> Optional[float]:
        """Sim time of the first dead-detection for an agent."""
        for t, kind, name in self.events:
            if kind == "detected-dead" and name == agent_name:
                return t
        return None

    def restart_count(self) -> int:
        return sum(1 for _, kind, _ in self.events if kind == "restarted")
