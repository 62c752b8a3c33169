"""DNS-SD-style service discovery over the simulated network.

:class:`DnsSd` gives each site a discovery daemon that (a) announces local
services to the authoritative :class:`~repro.comm.registry.ServiceRegistry`
hosted at a well-known site, (b) browses service types with TTL-bounded
caching, and (c) pushes change notifications to subscribed watchers —
milestone M12's "self-discovering agent networks using DNS-SD and
distributed service registries".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.comm.registry import ServiceRecord, ServiceRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator


@dataclass
class ServiceAnnouncement:
    """What a service says about itself when it joins the network."""

    instance: str
    service_type: str
    endpoint: str = ""
    capabilities: dict[str, Any] = None  # type: ignore[assignment]
    ttl_s: float = 60.0

    def __post_init__(self) -> None:
        if self.capabilities is None:
            self.capabilities = {}


class DnsSd:
    """Per-site discovery daemon backed by a shared registry.

    Parameters
    ----------
    sim, network:
        Kernel and transport.
    registry:
        The authoritative registry.
    registry_site:
        Site hosting the registry (browse/announce incur a WAN round trip
        to it).
    site:
        The site this daemon serves.
    cache_ttl_s:
        How long browse results are served from the local cache.
    """

    ANNOUNCE_SIZE = 512.0
    QUERY_SIZE = 256.0
    #: Lease renewal period of :meth:`keepalive`.
    KEEPALIVE_INTERVAL_S = 20.0

    def __init__(self, sim: "Simulator", network: "Network",
                 registry: ServiceRegistry, registry_site: str, site: str,
                 cache_ttl_s: float = 5.0) -> None:
        self.sim = sim
        self.network = network
        self.registry = registry
        self.registry_site = registry_site
        self.site = site
        self.cache_ttl_s = cache_ttl_s
        self._cache: dict[str, tuple[float, list[ServiceRecord]]] = {}
        self._watch_unsub: Optional[Callable[[], None]] = None
        self.stats = {"announces": 0, "browses": 0, "cache_hits": 0}

    # -- announce ------------------------------------------------------------

    def announce(self, ann: ServiceAnnouncement):
        """Generator: register a local service with the federation registry."""
        yield self.network.send(self.site, self.registry_site,
                                self.ANNOUNCE_SIZE)
        record = ServiceRecord(
            instance=ann.instance, service_type=ann.service_type,
            site=self.site, endpoint=ann.endpoint,
            capabilities=dict(ann.capabilities), ttl_s=ann.ttl_s)
        self.registry.register(record)
        self.stats["announces"] += 1
        return record

    def withdraw(self, instance: str):
        """Generator: deregister a previously announced service."""
        yield self.network.send(self.site, self.registry_site, self.QUERY_SIZE)
        return self.registry.deregister(instance)

    def keepalive(self, instance: str):
        """Generator: renew the lease every ``KEEPALIVE_INTERVAL_S`` until
        the record is gone (spawn as a process)."""
        while True:
            yield self.sim.timeout(self.KEEPALIVE_INTERVAL_S)
            yield self.network.send(self.site, self.registry_site,
                                    self.QUERY_SIZE)
            if not self.registry.renew(instance):
                return  # record gone; stop renewing

    # -- browse -------------------------------------------------------------------

    def browse(self, service_type: str, *, use_cache: bool = True,
               **capability_filters: Any):
        """Generator: list live instances of a service type.

        Returns a list of :class:`ServiceRecord`.  Cached responses are
        served instantly; cache misses pay a round trip to the registry
        site.  Capability filters always re-filter locally so a cached
        browse can serve multiple queries.
        """
        self.stats["browses"] += 1
        cached = self._cache.get(service_type)
        if use_cache and cached is not None:
            fetched_at, records = cached
            if self.sim.now - fetched_at < self.cache_ttl_s:
                self.stats["cache_hits"] += 1
                return [r for r in records
                        if r.matches(service_type, **capability_filters)]
        yield self.network.send(self.site, self.registry_site, self.QUERY_SIZE)
        records = self.registry.lookup(service_type)
        resp_size = self.QUERY_SIZE + 256.0 * len(records)
        yield self.network.send(self.registry_site, self.site, resp_size)
        self._cache[service_type] = (self.sim.now, records)
        return [r for r in records
                if r.matches(service_type, **capability_filters)]

    def resolve(self, instance: str):
        """Generator: fetch one instance's record (no caching)."""
        yield self.network.send(self.site, self.registry_site, self.QUERY_SIZE)
        rec = self.registry.get(instance)
        yield self.network.send(self.registry_site, self.site, 512.0)
        return rec

    # -- push notifications -----------------------------------------------------------

    def subscribe(self, service_type: str,
                  callback: Callable[[str, ServiceRecord], None]) -> Callable[[], None]:
        """Receive ``(event, record)`` callbacks on registry changes.

        Also invalidates this daemon's cache for the type, so the next
        browse reflects the change — this is what makes reconfiguration
        "dynamic" in E5.
        """
        def wrapped(event: str, record: ServiceRecord) -> None:
            self._cache.pop(service_type, None)
            callback(event, record)
        return self.registry.watch(wrapped, service_type)
