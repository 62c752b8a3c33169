"""Facility-sharded discovery: the data plane of the 1000-lab mesh.

A single :class:`~repro.data.mesh.DiscoveryIndex` is fine for a handful
of laboratories, but the paper's premise is a *network*: at hundreds of
facilities one in-memory dict becomes both a scaling bottleneck and a
single administrative domain, which §3.2's federated-node architecture
explicitly rejects.  :class:`ShardedDiscoveryIndex` keeps the flat-index
API (so :class:`~repro.data.mesh.DataMeshNode` and
:class:`~repro.data.mesh.FederatedDataMesh` work unchanged) while
routing every entry to a per-facility shard:

- **Deterministic routing** — :func:`shard_for` hashes the facility name
  with CRC-32, never Python's salted ``hash()``, so two processes (or a
  replayed campaign) place every record identically.
- **Targeted queries stay on one shard** — a ``site=`` filter routes to
  that facility's shard; a ``record_id=`` lookup goes through the
  home-shard map.  Only filter-free scans fan out to every shard.
- **Secondary indexes per shard** — each shard is a full
  :class:`~repro.data.mesh.DiscoveryIndex` with inverted postings, so a
  cross-shard ``metadata.technique=`` query is K set probes, not one
  O(total-records) scan.

Index-replication lag is a property of the *publishing node*
(:meth:`~repro.data.mesh.DataMeshNode.ingest` schedules the publish),
so sharding preserves it untouched.
"""

from __future__ import annotations

import zlib
from operator import itemgetter
from typing import Any, Callable, Optional

from repro.data.mesh import DiscoveryIndex

__all__ = ["shard_for", "ShardedDiscoveryIndex"]


def shard_for(site: str, n_shards: int) -> int:
    """Deterministic facility -> shard routing (stable across processes).

    CRC-32 of the UTF-8 site name modulo the shard count: cheap, seeded
    by nothing, and identical in every worker — the property the
    parallel-equivalence CI job depends on.
    """
    if n_shards < 1:
        raise ValueError(f"need n_shards >= 1, got {n_shards}")
    return zlib.crc32(site.encode("utf-8")) % n_shards


class ShardedDiscoveryIndex:
    """N per-facility :class:`DiscoveryIndex` shards behind the flat API.

    Parameters
    ----------
    n_shards:
        Number of shards.  Facilities map to shards via
        :func:`shard_for`; several facilities may share a shard (that is
        the "facility-boundary" sharding the roadmap asks for — a shard
        is an administrative domain, not necessarily one lab).
    """

    def __init__(self, n_shards: int = 16) -> None:
        if n_shards < 1:
            raise ValueError(f"need n_shards >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.shards = [DiscoveryIndex() for _ in range(n_shards)]
        self._home: dict[str, int] = {}  # record_id -> shard number
        self._local = {"fanout_queries": 0, "routed_queries": 0}

    # -- routing -----------------------------------------------------------

    def shard_id(self, site: Optional[str]) -> int:
        """Shard number for ``site``; a missing site (``None`` or ``""``)
        routes to the ``""`` shard."""
        return shard_for(site or "", self.n_shards)

    def shard_of(self, site: Optional[str]) -> DiscoveryIndex:
        """The shard holding entries for ``site``."""
        return self.shards[self.shard_id(site)]

    # -- flat-index API ----------------------------------------------------

    def publish(self, entry: dict[str, Any]) -> None:
        shard = self.shard_id(entry.get("site"))
        self._rehome(entry["record_id"], shard)
        self.shards[shard].publish(entry)

    def _rehome(self, record_id: str, shard: int) -> None:
        old = self._home.get(record_id)
        if old is not None and old != shard:
            # A re-published record that moved site: drop the stale copy.
            self.shards[old].remove(record_id)
        self._home[record_id] = shard

    def remove(self, record_id: str) -> None:
        shard = self._home.pop(record_id, None)
        if shard is not None:
            self.shards[shard].remove(record_id)

    def __len__(self) -> int:
        return len(self._home)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._home

    def get(self, record_id: str) -> Optional[dict[str, Any]]:
        """Primary-key lookup via the home-shard map (no fan-out)."""
        shard = self._home.get(record_id)
        if shard is None:
            self._local["routed_queries"] += 1
            return None
        return self.shards[shard].get(record_id)

    def query(self, predicate: Optional[Callable[[dict[str, Any]], bool]] = None,
              **equals: Any) -> list[dict[str, Any]]:
        """Same contract as :meth:`DiscoveryIndex.query`, shard-routed.

        ``site=`` filters (and ``record_id=`` lookups) touch exactly one
        shard; everything else fans out and merges the per-shard results
        (each already sorted by record id).
        """
        if "record_id" in equals:
            self._local["routed_queries"] += 1
            shard = self._home.get(equals["record_id"])
            if shard is None:
                return []
            return self.shards[shard].query(predicate=predicate, **equals)
        if "site" in equals:
            self._local["routed_queries"] += 1
            return self.shard_of(equals["site"]).query(predicate=predicate,
                                                       **equals)
        self._local["fanout_queries"] += 1
        out: list[dict[str, Any]] = []
        for shard in self.shards:
            out.extend(shard.query(predicate=predicate, **equals))
        return sorted(out, key=itemgetter("record_id"))

    # -- shard fan-in ------------------------------------------------------

    def merge_from(self, other: "ShardedDiscoveryIndex") -> None:
        """Fold a worker's index into this one after a fan-out phase.

        Requires equal shard counts: :func:`shard_for` is deterministic,
        so same-shaped indexes place every record identically and the
        merge is a per-shard :meth:`DiscoveryIndex.merge_from` plus a
        home-map union (incoming side wins conflicts, like a repeated
        publish).  A record whose incoming copy lives on another shard
        moved site: our stale copy is dropped, as :meth:`publish` does.
        """
        if other.n_shards != self.n_shards:
            raise ValueError(
                f"cannot merge a {other.n_shards}-shard index into a "
                f"{self.n_shards}-shard one — shard routing would differ")
        for record_id, shard in other._home.items():
            self._rehome(record_id, shard)
        for ours, theirs in zip(self.shards, other.shards):
            ours.merge_from(theirs)
        for key, value in other._local.items():
            self._local[key] = self._local.get(key, 0) + value

    def state(self) -> dict[str, Any]:
        """Deterministic snapshot: shard shape plus per-shard states."""
        return {"n_shards": self.n_shards,
                "shards": [shard.state() for shard in self.shards],
                "local": dict(self._local)}

    # -- introspection -----------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        """Aggregate of every shard's counters plus routing counters."""
        totals = {"publishes": 0, "queries": 0,
                  "index_hits": 0, "index_misses": 0}
        for shard in self.shards:
            for key in totals:
                totals[key] += shard.stats[key]
        totals.update(self._local)
        return totals

    def shard_sizes(self) -> list[int]:
        """Entries per shard (balance diagnostics for the benchmarks)."""
        return [len(shard) for shard in self.shards]
