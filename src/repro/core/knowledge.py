"""Cross-facility knowledge integration (milestone M9).

"Deploy a knowledge integration system with 3+ facilities, propagating
insights across sites in real-time to reduce required experiments by
>30%."

Each participating site registers a :class:`KnowledgeNode` holding its
local optimizer and a :class:`~repro.methods.transfer.TransferAdapter`.
When a site publishes a valid observation, the base ships it to every
other node over the simulated WAN (propagation latency is real); before
each planning step, a site *syncs* — absorbing bias-corrected foreign
observations into its optimizer.

Three policies, ablated in E3:

- ``"none"`` — isolated sites (the baseline).
- ``"raw"`` — share observations verbatim (calibration offsets leak in).
- ``"corrected"`` — share through the transfer adapter (recommended).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.net.transport import Network, NetworkError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.labsci.landscapes import ParameterSpace
    from repro.sim.kernel import Simulator

POLICIES = ("none", "raw", "corrected")


@dataclass
class _Donation:
    source: str
    params: dict[str, Any]
    value: float
    arrived: float


class KnowledgeNode:
    """One site's view of the shared knowledge."""

    def __init__(self, site: str, optimizer, space: "ParameterSpace") -> None:
        # Imported here, like every repro.methods import outside the
        # package: importing repro.core loads neither it nor scipy.
        from repro.methods.transfer import TransferAdapter
        self.site = site
        self.optimizer = optimizer
        self.adapter = TransferAdapter(space)
        self.inbox: list[_Donation] = []
        self._absorbed = 0  # raw policy: prefix of inbox already absorbed
        self._absorbed_by_source: dict[str, int] = {}  # corrected policy
        self.reasoning_traces: list[str] = []


class KnowledgeBase:
    """The federation-wide knowledge integration fabric.

    Parameters
    ----------
    sim, network:
        Kernel and transport (propagation rides real links).
    policy:
        One of :data:`POLICIES`.
    """

    #: Wire size of one shared observation.
    OBSERVATION_BYTES = 2048.0

    def __init__(self, sim: "Simulator", network: Network,
                 policy: str = "corrected") -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        self.sim = sim
        self.network = network
        self.policy = policy
        self.nodes: dict[str, KnowledgeNode] = {}
        self.stats = {"published": 0, "propagated": 0, "absorbed": 0}

    def register(self, site: str, optimizer,
                 space: "ParameterSpace") -> KnowledgeNode:
        if site in self.nodes:
            raise ValueError(f"site {site!r} already registered")
        node = KnowledgeNode(site, optimizer, space)
        self.nodes[site] = node
        return node

    # -- publication ------------------------------------------------------------

    def publish(self, site: str, params: Mapping[str, Any], value: float,
                trace: str = "") -> None:
        """Share a local observation with the federation (fire-and-forget).

        Propagation to each peer is asynchronous: a peer sees the
        donation only after the WAN latency to it has elapsed.
        """
        node = self.nodes[site]
        node.adapter.observe_local(params, value)
        if trace:
            node.reasoning_traces.append(trace)
        self.stats["published"] += 1
        if self.policy == "none":
            return
        for peer_site, peer in self.nodes.items():
            if peer_site == site:
                continue
            self._ship(site, peer, dict(params), float(value))

    def _ship(self, src: str, peer: KnowledgeNode, params: dict[str, Any],
              value: float) -> None:
        def deliver() -> None:
            peer.inbox.append(_Donation(source=src, params=params,
                                        value=value, arrived=self.sim.now))
            peer.adapter.receive(src, params, value)
            self.stats["propagated"] += 1

        try:
            path = self.network.route(src, peer.site)
            delay = self.network.sample_delay(path, self.OBSERVATION_BYTES)
        except NetworkError:
            return  # unreachable peer: the donation is simply lost
        self.sim.schedule_callback(delay, deliver)

    # -- absorption ------------------------------------------------------------------

    def sync(self, site: str) -> int:
        """Absorb newly arrived foreign knowledge into the local optimizer.

        Returns the number of observations absorbed.  ``raw`` policy
        absorbs donated values verbatim; ``corrected`` re-estimates each
        source's offset from all its donations (offsets improve as more
        pairs accumulate) and corrects and absorbs only the
        not-yet-absorbed tail.
        """
        node = self.nodes[site]
        if self.policy == "none":
            return 0
        if self.policy == "raw":
            fresh = node.inbox[node._absorbed:]
            for d in fresh:
                node.optimizer.absorb(d.params, d.value)
            node._absorbed = len(node.inbox)
            self.stats["absorbed"] += len(fresh)
            return len(fresh)
        # corrected: absorb per-source tails (sources interleave, so a
        # single global cursor would double-absorb)
        absorbed = 0
        for source in sorted(node.adapter._foreign):
            start = node._absorbed_by_source.get(source, 0)
            fresh = node.adapter.corrected_donations(source, start)
            for params, value in fresh:
                node.optimizer.absorb(params, value)
            absorbed += len(fresh)
            node._absorbed_by_source[source] = start + len(fresh)
        self.stats["absorbed"] += absorbed
        return absorbed

    # -- introspection ----------------------------------------------------------------------

    def total_donations_at(self, site: str) -> int:
        return len(self.nodes[site].inbox)

    def reasoning_traces(self) -> list[str]:
        out = []
        for site in sorted(self.nodes):
            out.extend(self.nodes[site].reasoning_traces)
        return out
