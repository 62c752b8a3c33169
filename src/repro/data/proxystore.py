"""Pass-by-reference data movement (§3.2, ref [18]).

"Systems like ProxyStore enable efficient data transfer through
pass-by-reference semantics ... allowing large datasets to be shared
without duplicating storage."

A :class:`ProxyStore` at each site holds large payloads; :meth:`put`
returns a tiny :class:`Proxy` that travels in messages for ~100 bytes.
Resolving a proxy at another site pays the full transfer exactly once and
caches thereafter — the behaviour E9's bulk-movement column measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.comm.serialization import estimate_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class Proxy:
    """A lightweight reference to an object held in some site's store."""

    key: str
    home_site: str
    size_bytes: float

    def wire_size(self) -> float:
        """What the proxy itself costs to ship (vs. the object)."""
        return 96.0


class ProxyStore:
    """One site's object store participating in the federation.

    Parameters
    ----------
    sim, network:
        Kernel and transport (resolution of remote proxies transfers the
        actual bytes over the network).
    site:
        The site this store serves.
    peers:
        Shared mapping of site name -> ProxyStore; all stores in a
        federation share one dict so proxies resolve anywhere.
    """

    def __init__(self, sim: "Simulator", network: "Network", site: str,
                 peers: dict[str, "ProxyStore"]) -> None:
        self.sim = sim
        self.network = network
        self.site = site
        self._objects: dict[str, Any] = {}
        self._cache: dict[str, Any] = {}
        peers[site] = self
        self._peers = peers
        self.stats = {"puts": 0, "local_hits": 0, "cache_hits": 0,
                      "remote_fetches": 0, "bytes_fetched": 0.0}

    def put(self, obj: Any) -> Proxy:
        """Store an object locally; returns its proxy."""
        # One world-wide "proxy" stream: keys stay unique across every
        # store in the federation and identical across same-seed worlds.
        key = self.sim.ids.label("proxy")
        self._objects[key] = obj
        self.stats["puts"] += 1
        return Proxy(key=key, home_site=self.site,
                     size_bytes=estimate_size(obj))

    def resolve(self, proxy: Proxy):
        """Generator: materialize a proxy's object at this site.

        Local and previously-fetched objects return instantly; remote
        objects pay one WAN transfer of the full payload size.
        """
        if proxy.home_site == self.site:
            self.stats["local_hits"] += 1
            return self._fetch_home(proxy)
        if proxy.key in self._cache:
            self.stats["cache_hits"] += 1
            return self._cache[proxy.key]
        home = self._peers.get(proxy.home_site)
        if home is None:
            raise KeyError(f"no store at site {proxy.home_site!r}")
        # Request (small) + bulk response (the object).
        yield self.network.send(self.site, proxy.home_site,
                                proxy.wire_size())
        obj = home._fetch_home(proxy)
        yield self.network.send(proxy.home_site, self.site, proxy.size_bytes)
        self._cache[proxy.key] = obj
        self.stats["remote_fetches"] += 1
        self.stats["bytes_fetched"] += proxy.size_bytes
        return obj

    def _fetch_home(self, proxy: Proxy) -> Any:
        try:
            return self._objects[proxy.key]
        except KeyError:
            raise KeyError(
                f"{proxy.key} is not held at {self.site}") from None
