"""Sites, links, and the institutional network topology.

A :class:`Site` is an administrative domain (a laboratory, user facility,
or HPC center).  Sites are vertices of a :class:`Topology`; physical WAN
links carry latency/bandwidth/jitter/loss parameters.  Routing follows the
latency-shortest path through the currently-alive subgraph, so fault
injection transparently reroutes traffic.

A path is a pure function of the graph, the blocked edge set, ``src`` and
``dst``.  :meth:`Topology.path` therefore memoizes paths per ``(src, dst)``
for the blocked set it last saw: a different blocked set, ``add_site`` or
``connect`` empties the memo, and a cached path equals the one a fresh
computation would return.

The graph is a plain adjacency dict, and :func:`_bidirectional_dijkstra`
ports networkx's ``bidirectional_dijkstra`` (what ``nx.shortest_path``
runs with a weight) step for step, so equal-latency ties resolve exactly
as they did when the topology was an ``nx.Graph``.  The search runs on a
routing view derived from that dict: sites numbered in adjacency order,
and per site a list of ``(neighbour number, latency)`` in the order
networkx iterates (insertion order, or ``nx.Graph.copy()`` order minus
the blocked links).  Heap entries carry a unique push count before the
site number, so numbering never breaks a tie, and list indexing makes a
search about 1.8x cheaper than one keyed by site name.  The view is
built on the first memo miss after the events that empty the memo, so
the memo and the view share one invalidation rule; :class:`Link` is
frozen, so no latency can change under either.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class Site:
    """An administrative/trust domain hosting instruments, agents and data.

    Attributes
    ----------
    name:
        Unique site identifier, e.g. ``"ornl"``.
    institution:
        Human-readable institution name.
    region:
        Coarse geographic tag used by some latency heuristics.
    tags:
        Free-form attributes (e.g. ``{"kind": "user-facility"}``) consulted
        by ABAC policies and scheduling heuristics.
    """

    name: str
    institution: str = ""
    region: str = ""
    tags: tuple[tuple[str, Any], ...] = ()

    def tag(self, key: str, default: Any = None) -> Any:
        """Look up a tag value by key."""
        for k, v in self.tags:
            if k == key:
                return v
        return default

    @staticmethod
    def make(name: str, institution: str = "", region: str = "",
             **tags: Any) -> "Site":
        """Convenience constructor accepting tags as keyword arguments."""
        return Site(name=name, institution=institution or name,
                    region=region, tags=tuple(sorted(tags.items())))


@dataclass(frozen=True)
class Link:
    """A bidirectional WAN link between two sites.

    Frozen: the route memo and the routing view read ``latency_s`` once,
    and a transfer is priced from the same link.

    Attributes
    ----------
    latency_s:
        One-way propagation delay in seconds.
    bandwidth_Bps:
        Usable throughput in bytes/second.
    jitter_s:
        Standard deviation of a truncated-Gaussian latency perturbation.
    loss_prob:
        Per-traversal probability that a transfer is lost.
    """

    latency_s: float = 0.010
    bandwidth_Bps: float = 1.25e9  # 10 Gbit/s
    jitter_s: float = 0.0
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if self.bandwidth_Bps <= 0:
            raise ValueError("bandwidth_Bps must be > 0")
        if self.jitter_s < 0:
            raise ValueError("jitter_s must be >= 0")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")


#: Link parameters used when two endpoints are co-located at a site
#: (loopback through the site LAN).
LOCAL_LINK = Link(latency_s=0.0002, bandwidth_Bps=1.25e10, jitter_s=0.0,
                  loss_prob=0.0)


class NoPath(LookupError):
    """No path joins the endpoints, or one of them is not a site."""


def _bidirectional_dijkstra(nbrs: list[list[tuple[int, float]]],
                            source: int, target: int) -> Optional[list[int]]:
    """Latency-shortest ``source`` -> ``target`` path on an undirected graph,
    or ``None`` when they are disconnected.

    ``nbrs[v]`` lists ``(neighbour, latency)`` for site number ``v``.  A
    port of networkx 3.6's ``bidirectional_dijkstra``: the two searches
    alternate (forward first), share one push counter that breaks heap
    ties, keep a meeting node that only a strictly shorter total replaces,
    and add latencies in the same order, so the path is the one networkx
    returns.  ``None`` marks "not seen" and "not done": a distance of 0 is
    falsy, and an ``inf`` sentinel would mishandle an infinite latency.
    """
    n = len(nbrs)
    dists: list[list[Optional[float]]] = [[None] * n, [None] * n]
    preds: list[list[Optional[int]]] = [[None] * n, [None] * n]
    seen: list[list[Optional[float]]] = [[None] * n, [None] * n]
    seen[0][source] = 0
    seen[1][target] = 0
    c = count()
    fringe: list[list] = [[(0, next(c), source)], [(0, next(c), target)]]
    finaldist: Optional[float] = None
    meetnode = -1
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        heap = fringe[direction]
        dist, _, v = heappop(heap)
        done = dists[direction]
        if done[v] is not None:
            continue
        done[v] = dist
        if dists[1 - direction][v] is not None:
            path: list[int] = []
            node: Optional[int] = meetnode
            while node is not None:
                path.append(node)
                node = preds[0][node]
            path.reverse()
            node = preds[1][meetnode]
            while node is not None:
                path.append(node)
                node = preds[1][node]
            return path
        near, far = seen[direction], seen[1 - direction]
        pred = preds[direction]
        for w, latency in nbrs[v]:
            if done[w] is not None:
                continue
            vw_length = dist + latency
            seen_w = near[w]
            if seen_w is None or vw_length < seen_w:
                near[w] = vw_length
                heappush(heap, (vw_length, next(c), w))
                pred[w] = v
                far_w = far[w]
                if far_w is not None:
                    total = vw_length + far_w
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, w
    return None


class Topology:
    """The graph of sites and WAN links.

    Examples
    --------
    >>> topo = Topology()
    >>> a, b = Site.make("a"), Site.make("b")
    >>> topo.add_site(a); topo.add_site(b)
    >>> topo.connect("a", "b", Link(latency_s=0.02))
    >>> [s.name for s in topo.sites()]
    ['a', 'b']
    """

    def __init__(self) -> None:
        # site -> {neighbour: link}, in insertion order as nx.Graph kept
        # it; both directions of a link share one Link object.
        self._adj: dict[str, dict[str, Link]] = {}
        self._sites: dict[str, Site] = {}
        self._paths: dict[tuple[str, str], tuple[str, ...]] = {}
        self._paths_blocked: frozenset[tuple[str, str]] = frozenset()
        # Routing view for ``_paths_blocked``: (site names, name -> number,
        # per-site (neighbour number, latency) lists); ``None`` until the
        # next memo miss rebuilds it.
        self._view: Optional[tuple[list[str], dict[str, int],
                                   list[list[tuple[int, float]]]]] = None

    # -- construction -------------------------------------------------------

    def add_site(self, site: Site) -> Site:
        if site.name in self._sites:
            raise ValueError(f"duplicate site {site.name!r}")
        self._sites[site.name] = site
        self._adj[site.name] = {}
        self._paths.clear()
        self._view = None
        return site

    def connect(self, a: str, b: str, link: Optional[Link] = None) -> Link:
        """Add a bidirectional link between sites ``a`` and ``b``."""
        if a not in self._sites or b not in self._sites:
            raise KeyError(f"unknown site in ({a!r}, {b!r})")
        if a == b:
            raise ValueError("cannot connect a site to itself")
        link = link or Link()
        self._adj[a][b] = self._adj[b][a] = link
        self._paths.clear()
        self._view = None
        return link

    # -- queries --------------------------------------------------------------

    def site(self, name: str) -> Site:
        return self._sites[name]

    def sites(self) -> list[Site]:
        return [self._sites[n] for n in sorted(self._sites)]

    def has_site(self, name: str) -> bool:
        return name in self._sites

    def link(self, a: str, b: str) -> Link:
        return self._adj[a][b]

    def links(self) -> list[tuple[str, str, Link]]:
        """Every link once, in networkx's edge order: by site insertion,
        then adjacency order, skipping sites already listed."""
        out, listed = [], set()
        for a, nbrs in self._adj.items():
            out.extend((min(a, b), max(a, b), link)
                       for b, link in nbrs.items() if b not in listed)
            listed.add(a)
        return out

    def neighbors(self, name: str) -> list[str]:
        return sorted(self._adj[name])

    def path(self, src: str, dst: str,
             blocked: Optional[Iterable[tuple[str, str]]] = None) -> list[str]:
        """Latency-shortest path from ``src`` to ``dst``.

        ``blocked`` is an iterable of edges to exclude (fault injection).
        Raises :class:`NoPath` when disconnected or when an endpoint is
        not a site.

        The path is a pure function of the graph, ``blocked``, ``src`` and
        ``dst``, so it is memoized per ``(src, dst)`` for the blocked set
        of the last call; a call with a different blocked set, or a later
        :meth:`add_site` / :meth:`connect`, empties the memo and drops the
        routing view, which the next miss rebuilds.  Failures are not
        cached, and every call returns a fresh list.
        """
        if src == dst:
            return [src]
        blocked = frozenset(blocked or ())
        if blocked != self._paths_blocked:
            self._paths.clear()
            self._paths_blocked = blocked
            self._view = None
        hit = self._paths.get((src, dst))
        if hit is not None:
            return list(hit)
        if self._view is None:
            self._view = self._routing_view(blocked)
        names, number, nbrs = self._view
        s, t = number.get(src), number.get(dst)
        if s is None or t is None:
            raise NoPath(f"unknown endpoint in ({src!r}, {dst!r})")
        found = _bidirectional_dijkstra(nbrs, s, t)
        if found is None:
            raise NoPath(f"no path between {src!r} and {dst!r}")
        path = [names[v] for v in found]
        self._paths[src, dst] = tuple(path)
        return path

    def _routing_view(self, blocked: frozenset[tuple[str, str]]
                      ) -> tuple[list[str], dict[str, int],
                                 list[list[tuple[int, float]]]]:
        """Number the sites in adjacency order and list each one's
        ``(neighbour number, latency)`` in networkx's iteration order."""
        adj = self._adj
        if blocked:
            # Rebuild the adjacency in the order ``nx.Graph.copy()`` does,
            # which differs from insertion order, then drop the blocked
            # links: equal-latency ties depend on that order.
            adj = {name: {} for name in self._adj}
            for a, nbrs in self._adj.items():
                for b, link in nbrs.items():
                    adj[a][b] = adj[b][a] = link
            for a, b in sorted(blocked):
                if b in adj.get(a, ()):
                    del adj[a][b], adj[b][a]
        names = list(adj)
        number = {name: v for v, name in enumerate(names)}
        return names, number, [
            [(number[w], link.latency_s) for w, link in adj[name].items()]
            for name in names]

    def path_links(self, path: list[str]) -> list[Link]:
        """The links along a node path."""
        return [self._adj[a][b] for a, b in zip(path, path[1:])]

    # -- canned topologies ------------------------------------------------------

    @staticmethod
    def national_lab_testbed(n_sites: int = 5, *, latency_s: float = 0.02,
                             bandwidth_Bps: float = 1.25e9,
                             jitter_s: float = 0.002,
                             loss_prob: float = 0.0) -> "Topology":
        """A ring-plus-chords topology approximating ESnet-style connectivity.

        Sites are named ``site-0 .. site-(n-1)``.  Each site connects to its
        ring neighbours, and every third pair gets a chord, giving path
        diversity for failover experiments.
        """
        if n_sites < 2:
            raise ValueError("need at least 2 sites")
        topo = Topology()
        for i in range(n_sites):
            topo.add_site(Site.make(f"site-{i}", institution=f"Lab {i}"))
        link = dict(latency_s=latency_s, bandwidth_Bps=bandwidth_Bps,
                    jitter_s=jitter_s, loss_prob=loss_prob)
        for i in range(n_sites):
            j = (i + 1) % n_sites
            if f"site-{j}" not in topo._adj[f"site-{i}"]:
                topo.connect(f"site-{i}", f"site-{j}", Link(**link))
        for i in range(0, n_sites - 2, 3):
            a, b = f"site-{i}", f"site-{i + 2}"
            if b not in topo._adj[a]:
                topo.connect(a, b, Link(**link))
        return topo

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Topology sites={len(self._sites)} "
                f"links={len(self.links())}>")
