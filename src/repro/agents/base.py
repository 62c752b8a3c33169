"""The agent base: identity, heartbeats, crash semantics.

Agents are stateful objects with an address whose methods the
orchestrator calls directly.  A started agent emits periodic heartbeats
that the :class:`~repro.agents.lifecycle.Supervisor` watches.
Crash/restart is a first-class operation because E11 injects agent
failures.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any

from repro.sim.process import Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class AgentState(enum.Enum):
    INIT = "init"
    RUNNING = "running"
    CRASHED = "crashed"


class Agent:
    """Base class for all AISLE agents.

    Parameters
    ----------
    sim, name, site:
        Identity.
    """

    #: Period of liveness beacons.
    heartbeat_interval_s = 5.0

    def __init__(self, sim: "Simulator", name: str, site: str) -> None:
        self.sim = sim
        self.name = name
        self.site = site
        self.state = AgentState.INIT
        self.last_heartbeat = -1.0
        self._procs: list[Any] = []
        self.stats = {"crashes": 0, "restarts": 0}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Agent":
        if self.state is AgentState.RUNNING:
            raise RuntimeError(f"{self.name} is already running")
        self.state = AgentState.RUNNING
        # A fresh start earns a full heartbeat interval of grace —
        # otherwise the supervisor immediately re-flags a just-restarted
        # agent whose last beacon predates its crash.
        self.last_heartbeat = self.sim.now
        self._procs = [self.sim.process(self._heartbeat_loop())]
        return self

    def crash(self) -> None:
        """Kill the agent abruptly (fault injection)."""
        if self.state is not AgentState.RUNNING:
            return
        self.state = AgentState.CRASHED
        self.stats["crashes"] += 1
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("crash")
        self._procs = []

    def restart(self) -> None:
        """Bring a crashed agent back (fresh heartbeat loop)."""
        if self.state is AgentState.RUNNING:
            return
        self.stats["restarts"] += 1
        self.state = AgentState.INIT
        self.start()

    @property
    def alive(self) -> bool:
        return self.state is AgentState.RUNNING

    def _heartbeat_loop(self):
        try:
            while True:
                yield self.sim.timeout(self.heartbeat_interval_s)
                self.last_heartbeat = self.sim.now
        except Interrupt:
            return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}@{self.site} {self.state.value}>"
