"""Network fault injection: link failures, flaky links, and partitions.

The :class:`FaultInjector` is consulted by the transport on every transfer.
Faults are expressed in simulated time and auto-heal, so experiments can
script failure campaigns declaratively (E4 failover, E11 fault tolerance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


def _edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class FaultInjector:
    """Tracks which links/sites are currently failed.

    All ``duration`` parameters are in simulated seconds; ``None`` means
    "until explicitly restored".
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._down_links: dict[tuple[str, str], float] = {}
        self._down_sites: dict[str, float] = {}
        self._partitions: list[tuple[frozenset[str], frozenset[str], float]] = []
        self._degraded: dict[tuple[str, str], tuple[float, float]] = {}
        self.history: list[tuple[float, str, str]] = []

    # -- link failures ----------------------------------------------------------

    def fail_link(self, a: str, b: str, duration: Optional[float] = None) -> None:
        """Take the link a--b down for ``duration`` seconds."""
        until = float("inf") if duration is None else self.sim.now + duration
        self._down_links[_edge(a, b)] = until
        self.history.append((self.sim.now, "fail_link", f"{a}--{b}"))

    def restore_link(self, a: str, b: str) -> None:
        self._down_links.pop(_edge(a, b), None)
        self.history.append((self.sim.now, "restore_link", f"{a}--{b}"))

    def link_down(self, a: str, b: str) -> bool:
        until = self._down_links.get(_edge(a, b))
        if until is None:
            return False
        if self.sim.now >= until:
            del self._down_links[_edge(a, b)]
            return False
        return True

    # -- site failures ------------------------------------------------------------

    def fail_site(self, name: str, duration: Optional[float] = None) -> None:
        """Take an entire site offline (all its links appear down)."""
        until = float("inf") if duration is None else self.sim.now + duration
        self._down_sites[name] = until
        self.history.append((self.sim.now, "fail_site", name))

    def restore_site(self, name: str) -> None:
        self._down_sites.pop(name, None)
        self.history.append((self.sim.now, "restore_site", name))

    def site_down(self, name: str) -> bool:
        until = self._down_sites.get(name)
        if until is None:
            return False
        if self.sim.now >= until:
            del self._down_sites[name]
            return False
        return True

    # -- partitions ------------------------------------------------------------------

    def partition(self, group_a: Iterable[str], group_b: Iterable[str],
                  duration: Optional[float] = None) -> None:
        """Block all traffic between two groups of sites."""
        until = float("inf") if duration is None else self.sim.now + duration
        self._partitions.append((frozenset(group_a), frozenset(group_b), until))
        self.history.append((self.sim.now, "partition",
                             f"{sorted(group_a)}|{sorted(group_b)}"))

    def heal_partitions(self) -> None:
        self._partitions.clear()
        self.history.append((self.sim.now, "heal_partitions", ""))

    def partitioned(self, src: str, dst: str) -> bool:
        now = self.sim.now
        alive = []
        hit = False
        for ga, gb, until in self._partitions:
            if now >= until:
                continue
            alive.append((ga, gb, until))
            if (src in ga and dst in gb) or (src in gb and dst in ga):
                hit = True
        self._partitions = alive
        return hit

    # -- degradation --------------------------------------------------------------------

    def degrade_link(self, a: str, b: str, *, extra_loss: float,
                     duration: Optional[float] = None) -> None:
        """Make a link flaky: add ``extra_loss`` to its loss probability."""
        if not 0.0 <= extra_loss <= 1.0:
            raise ValueError("extra_loss must be in [0, 1]")
        until = float("inf") if duration is None else self.sim.now + duration
        self._degraded[_edge(a, b)] = (extra_loss, until)
        self.history.append((self.sim.now, "degrade_link", f"{a}--{b}"))

    def extra_loss(self, a: str, b: str) -> float:
        entry = self._degraded.get(_edge(a, b))
        if entry is None:
            return 0.0
        loss, until = entry
        if self.sim.now >= until:
            del self._degraded[_edge(a, b)]
            return 0.0
        return loss

    # -- aggregate view --------------------------------------------------------------------

    def blocked_edges(self, topology) -> set[tuple[str, str]]:
        """All edges currently unusable (down links + links of down sites).

        Built from the active faults alone, so its cost does not grow with
        the topology; down sites the topology does not know are skipped.
        """
        blocked = {e for e in list(self._down_links)
                   if self.link_down(*e)}
        for name in list(self._down_sites):
            if self.site_down(name) and topology.has_site(name):
                blocked.update(_edge(name, peer)
                               for peer in topology.neighbors(name))
        return blocked

    def any_active(self) -> bool:
        """True if any fault is currently in force."""
        now = self.sim.now
        return (any(now < u for u in self._down_links.values())
                or any(now < u for u in self._down_sites.values())
                or any(now < u for *_, u in self._partitions)
                or any(now < u for _, u in self._degraded.values()))
