"""Point-to-point transfers over the simulated WAN.

:class:`Network` turns "send ``size`` bytes from site A to site B" into a
simulated delay (propagation + serialization + jitter) or a failure
(:class:`PacketLost`, :class:`Unreachable`).  Higher layers — the message
bus and RPC in :mod:`repro.comm` — add reliability semantics on top.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.net.faults import FaultInjector
from repro.net.topology import LOCAL_LINK, Link, NoPath, Topology
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import Event
    from repro.sim.kernel import Simulator


class NetworkError(Exception):
    """Base class for transport-level failures."""


class PacketLost(NetworkError):
    """The transfer was dropped by a lossy/degraded link."""


class Unreachable(NetworkError):
    """No alive path exists between the endpoints."""


class Network:
    r"""The simulated internetwork connecting AISLE sites.

    Parameters
    ----------
    sim:
        The discrete-event kernel.
    topology:
        Site/link graph.
    rng:
        Numpy generator used for jitter and loss draws.
    faults:
        Optional :class:`FaultInjector`; when omitted a private, quiet one
        is created.
    metrics:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry`; the
        transfer counters and the ``net.transfer_latency`` histogram land
        there (a private registry is created when omitted, keeping the
        ``stats`` API identical either way).

    Notes
    -----
    Delivery time for an ``n``-hop path of links :math:`l_1 \dots l_n` is

    .. math::

       T(\text{size}) = \sum_{i=1}^{n} \left( \text{latency}_i
           + \frac{\text{size}}{\text{bandwidth}_i}
           + \max\bigl(0,\, \mathcal{N}(0, \text{jitter}_i^2)\bigr) \right)

    which captures store-and-forward serialization per hop without
    modelling queueing contention (adequate for the latency-scale claims
    in E4/E5; see DESIGN.md).
    """

    def __init__(self, sim: "Simulator", topology: Topology,
                 rng: np.random.Generator,
                 faults: Optional[FaultInjector] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.rng = rng
        self.faults = faults or FaultInjector(sim)
        self.metrics = metrics or MetricsRegistry()
        self.stats = self.metrics.stats("net", {
            "transfers": 0, "bytes": 0.0, "lost": 0, "unreachable": 0,
            "total_latency": 0.0,
        })
        # send() updates the counters behind ``stats`` through these.
        self._n_transfers = self.stats.counter_for("transfers")
        self._n_bytes = self.stats.counter_for("bytes")
        self._n_lost = self.stats.counter_for("lost")
        self._total_latency = self.stats.counter_for("total_latency")
        self.latency_hist = self.metrics.histogram("net.transfer_latency")

    # -- path/latency computation -------------------------------------------

    def route(self, src: str, dst: str) -> list[str]:
        """The node path a transfer would take right now.

        Raises :class:`Unreachable` if faults disconnect the endpoints.
        """
        if self.faults.site_down(src) or self.faults.site_down(dst):
            raise Unreachable(f"endpoint site down ({src} -> {dst})")
        if self.faults.partitioned(src, dst):
            raise Unreachable(f"network partition blocks {src} -> {dst}")
        blocked = self.faults.blocked_edges(self.topology)
        try:
            return self.topology.path(src, dst, blocked=blocked)
        except NoPath as exc:  # no path, or an unknown site
            raise Unreachable(f"no path {src} -> {dst}: {exc}") from exc

    def sample_delay(self, path: list[str], size_bytes: float) -> float:
        """Sample the end-to-end delay for a transfer along ``path``.

        One ``standard_normal(k)`` call draws the jitter of the ``k`` links
        with ``jitter_s > 0``, in path order, and no call is made when
        ``k`` is 0.  This replays one ``normal(0.0, jitter_s)`` call per
        such link exactly: numpy computes ``normal(loc, scale)`` as ``loc
        + scale * standard_normal()`` with the same ziggurat draws, and
        adding ``0.0`` is exact, so the variates, the generator's state
        afterwards and ``jitter_s * z`` are bit-equal.  The total is
        summed link by link in path order, as before; ``sum()`` (which
        compensates on Python 3.12) or ``np.sum`` (pairwise) would round
        differently.
        """
        return self._delay(self.topology.path_links(path), size_bytes)

    def _delay(self, links: list[Link], size_bytes: float) -> float:
        """:meth:`sample_delay` over a path's links (none: a local hop)."""
        if not links:
            link = LOCAL_LINK
            return link.latency_s + size_bytes / link.bandwidth_Bps
        jittered = [link for link in links if link.jitter_s > 0]
        draws = iter(self.rng.standard_normal(len(jittered)).tolist()
                     if jittered else ())
        total = 0.0
        for link in links:
            total += link.latency_s + size_bytes / link.bandwidth_Bps
            if link.jitter_s > 0:
                total += max(0.0, link.jitter_s * next(draws))
        return total

    def _lost(self, path: list[str], links: list[Link]) -> bool:
        if not links:
            return False
        faults = self.faults
        # With no degradation recorded, extra_loss is 0.0 for every link
        # and has no side effect, so it is not asked.
        degraded = faults.any_degraded()
        for (a, b), link in zip(zip(path, path[1:]), links):
            p = link.loss_prob
            if degraded:
                p += faults.extra_loss(a, b)
            if p > 0 and self.rng.random() < p:
                return True
        return False

    # -- transfer API -------------------------------------------------------------

    def send(self, src: str, dst: str, size_bytes: float = 1024.0) -> "Event":
        """Start a transfer; the returned event fires on delivery.

        On success the event value is the measured delivery latency.  On
        loss/unreachability the event fails with a :class:`NetworkError`
        (after the time the failure took to manifest).
        """
        ev = self.sim.event()
        self._n_transfers.inc()
        self._n_bytes.inc(size_bytes)
        try:
            path = self.route(src, dst)
        except Unreachable as exc:
            self.stats["unreachable"] += 1
            # Unreachability is detected after a connect-timeout-ish delay.
            ev.fail(exc, delay=0.001)
            return ev
        # One link list for both draws; jitter is drawn before loss.
        links = self.topology.path_links(path)
        delay = self._delay(links, size_bytes)
        if self._lost(path, links):
            self._n_lost.inc()
            ev.fail(PacketLost(f"{src} -> {dst} transfer dropped"), delay=delay)
            return ev
        self._total_latency.inc(delay)
        self.latency_hist.observe(delay)
        ev.succeed(delay, delay=delay)
        return ev

    def transfer(self, src: str, dst: str, size_bytes: float = 1024.0):
        """Generator helper: ``latency = yield from net.transfer(...)``."""
        latency = yield self.send(src, dst, size_bytes)
        return latency

    def mean_latency(self) -> float:
        """Average measured delivery latency over successful transfers."""
        n = self.stats["transfers"] - self.stats["lost"] - self.stats["unreachable"]
        return self.stats["total_latency"] / n if n else 0.0
