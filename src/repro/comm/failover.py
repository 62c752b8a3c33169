"""Automatic failover across replicated endpoints (milestone M11).

A :class:`FailoverGroup` fronts a primary RPC server and ordered standbys.
Health tracking is one count of consecutive missed probes per replica:
the heartbeat monitor probes the current primary, adds a miss to its
count or resets the count when it answers, and promotes the next healthy
standby once the count reaches ``heartbeat_misses``.  E4 measures the
resulting recovery time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.comm.rpc import RpcClient, RpcServer, RpcTimeout, ServerDown
from repro.net.transport import NetworkError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class NoHealthyReplica(Exception):
    """Every replica in the group is down."""


class FailoverGroup:
    """Primary/standby replica set with miss-count promotion.

    Parameters
    ----------
    sim:
        Kernel.
    replicas:
        Servers in promotion order; ``replicas[0]`` starts as primary.
    heartbeat_interval_s:
        Monitor probe period — the dominant term in failover latency.
    heartbeat_misses:
        Consecutive missed probes of a replica that promote past it.  Only
        the primary is probed, so a replica's count resets only when it is
        primary once more and answers; until then one missed probe
        promotes past it.
    """

    def __init__(self, sim: "Simulator", replicas: list[RpcServer],
                 heartbeat_interval_s: float = 0.1,
                 heartbeat_misses: int = 2) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        if heartbeat_misses < 1:
            raise ValueError("need heartbeat_misses >= 1")
        self.sim = sim
        self.replicas = list(replicas)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_misses = heartbeat_misses
        self._misses = {replica.name: 0 for replica in self.replicas}
        self._primary_idx = 0
        self.events: list[tuple[float, str, str]] = []
        self._monitor_proc = None

    @property
    def primary(self) -> RpcServer:
        return self.replicas[self._primary_idx]

    # -- promotion ------------------------------------------------------------

    def promote_next(self) -> RpcServer:
        """Advance to the next healthy replica (monitor calls this)."""
        for offset in range(1, len(self.replicas) + 1):
            idx = (self._primary_idx + offset) % len(self.replicas)
            if self.replicas[idx].alive:
                self._primary_idx = idx
                self.events.append(
                    (self.sim.now, "promote", self.replicas[idx].name))
                return self.replicas[idx]
        raise NoHealthyReplica("all replicas down")

    # -- heartbeat monitor -----------------------------------------------------------

    def start_monitor(self, client: RpcClient) -> None:
        """Spawn the heartbeat process probing the current primary."""
        if self._monitor_proc is not None:
            raise RuntimeError("failover monitor already started")
        self._monitor_proc = self.sim.process(self._monitor(client))

    def _monitor(self, client: RpcClient):
        # detlint: ignore[C003] heartbeat loop, not a retry: each pass probes whichever replica is primary after a fresh interval; it ends once every replica is down
        while True:
            yield self.sim.timeout(self.heartbeat_interval_s)
            primary = self.primary
            try:
                # Probe deadline must exceed the WAN round trip even at
                # aggressive cadences, or healthy primaries look dead.
                yield from client.call(
                    primary, "_health", None,
                    deadline_s=max(0.2, self.heartbeat_interval_s),
                    retries=0)
                self._misses[primary.name] = 0
            except (RpcTimeout, ServerDown, NetworkError, KeyError):
                self.events.append((self.sim.now, "miss", primary.name))
                self._misses[primary.name] += 1
                if self._misses[primary.name] >= self.heartbeat_misses:
                    try:
                        self.promote_next()
                    except NoHealthyReplica:
                        self.events.append((self.sim.now, "all-down", ""))
                        return

    @staticmethod
    def install_health_endpoint(server: RpcServer) -> None:
        """Add the ``_health`` probe method replied to by live replicas."""
        server.register("_health", lambda _payload: "ok")

    def recovery_time(self) -> Optional[float]:
        """Sim-seconds from an outage's first missed heartbeat to its
        promotion.

        Measures the first promotion that a miss precedes, from the
        earliest miss after the promotion before it; a planned
        :meth:`promote_next` with no miss before it is skipped.  ``None``
        when no promotion follows a miss.
        """
        outage_start = None
        for t, kind, _ in self.events:
            if kind == "miss" and outage_start is None:
                outage_start = t
            elif kind == "promote" and outage_start is not None:
                return t - outage_start
        return None
