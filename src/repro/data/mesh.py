"""Federated data mesh with cross-institutional discovery (milestone M6).

"Priority should be given to implementing data mesh architectures in which
each laboratory maintains a federated node with standardized interfaces,
complemented by global discovery indices" (§3.2).

Records live at their producing site's :class:`DataMeshNode` (data
sovereignty); only metadata-only *index entries* replicate to the shared
:class:`DiscoveryIndex`.  Cross-site fetches go over the simulated WAN and
through the zero-trust gateway, with ABAC deciding whether e.g. a
``restricted`` record may leave its institution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.comm.message import Envelope, Message, Performative
from repro.data.fair import FairGovernor, fair_score
from repro.data.provenance import ProvenanceGraph
from repro.data.record import DataRecord
from repro.data.schema import SchemaRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator


class AccessDenied(Exception):
    """ABAC refused a cross-institutional data access."""


#: Entry fields served by inverted secondary indexes.  Dotted keys reach
#: into nested dicts exactly as :meth:`DiscoveryIndex.query` filters do.
INDEXED_FIELDS = ("schema_id", "site", "institution", "source",
                  "metadata.technique")


def _field_value(entry: dict[str, Any], key: str) -> Any:
    """Resolve a (possibly dotted) filter key against one index entry."""
    value: Any = entry
    for part in key.split("."):
        value = value.get(part) if isinstance(value, dict) else None
        if value is None:
            break
    return value


def _entry_matches(entry: dict[str, Any], equals: dict[str, Any]) -> bool:
    for key, want in equals.items():
        if _field_value(entry, key) != want:
            return False
    return True


class DiscoveryIndex:
    """The global, metadata-only index all mesh nodes share.

    ``record_id`` lookups hit the primary dict directly, and equality
    filters on :data:`INDEXED_FIELDS` are served from inverted postings
    (value -> record ids) instead of scanning every entry.  ``stats``
    counts how often queries were answered from an index
    (``index_hits``) versus falling back to a full scan
    (``index_misses``).
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, Any]] = {}
        self._inverted: dict[str, dict[Any, set[str]]] = {
            f: {} for f in INDEXED_FIELDS}
        self.stats = {"publishes": 0, "queries": 0,
                      "index_hits": 0, "index_misses": 0}

    def publish(self, entry: dict[str, Any]) -> None:
        self._insert(entry)
        self.stats["publishes"] += 1

    def _insert(self, entry: dict[str, Any]) -> None:
        record_id = entry["record_id"]
        old = self._entries.get(record_id)
        if old is not None:
            self._unindex(old)
        self._entries[record_id] = entry
        for field in INDEXED_FIELDS:
            value = _field_value(entry, field)
            if value is not None:
                self._inverted[field].setdefault(value, set()).add(record_id)

    def merge_from(self, other: "DiscoveryIndex") -> None:
        """Fold another index into this one (shard fan-in).

        Entries merge in sorted record-id order with the incoming side
        winning conflicts — the same last-writer semantics as a repeated
        :meth:`publish` — and query/publish counters add, so merged
        stats equal what one unsharded index would have recorded.
        """
        for record_id in sorted(other._entries):
            self._insert(dict(other._entries[record_id]))
        for key, value in other.stats.items():
            self.stats[key] = self.stats.get(key, 0) + value

    def state(self) -> dict[str, Any]:
        """Deterministic snapshot (entries sorted by record id) for
        cross-shard comparison and replay verification."""
        return {"entries": [dict(self._entries[r])
                            for r in sorted(self._entries)],
                "stats": dict(self.stats)}

    def remove(self, record_id: str) -> None:
        entry = self._entries.pop(record_id, None)
        if entry is not None:
            self._unindex(entry)

    def _unindex(self, entry: dict[str, Any]) -> None:
        record_id = entry["record_id"]
        for field in INDEXED_FIELDS:
            value = _field_value(entry, field)
            postings = self._inverted[field].get(value)
            if postings is not None:
                postings.discard(record_id)
                if not postings:
                    del self._inverted[field][value]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._entries

    def get(self, record_id: str) -> Optional[dict[str, Any]]:
        """Direct primary-key lookup (no scan); ``None`` when unknown."""
        entry = self._entries.get(record_id)
        key = "index_hits" if entry is not None else "index_misses"
        self.stats[key] += 1
        return entry

    def query(self, **equals: Any) -> list[dict[str, Any]]:
        """Find index entries by equality filters.

        Dotted keys reach into ``metadata`` (e.g.
        ``query(**{"metadata.technique": "powder-xrd"})``).  A
        ``record_id=`` filter is a direct dict hit; filters on
        :data:`INDEXED_FIELDS` intersect inverted postings; only queries
        with no indexable filter at all scan every entry.
        """
        self.stats["queries"] += 1
        if "record_id" in equals:
            entry = self._entries.get(equals["record_id"])
            self.stats["index_hits"] += 1
            if entry is None:
                return []
            residual = {k: v for k, v in equals.items() if k != "record_id"}
            return [entry] if _entry_matches(entry, residual) else []

        candidates: Optional[set[str]] = None
        residual: dict[str, Any] = {}
        for key, want in equals.items():
            postings_by_value = self._inverted.get(key)
            if postings_by_value is None or want is None:
                # Unindexed key, or ``None``: entries lacking the field
                # match it and have no postings, so check entry by entry.
                residual[key] = want
                continue
            postings = postings_by_value.get(want, set())
            candidates = postings if candidates is None \
                else candidates & postings
        if candidates is None:
            self.stats["index_misses"] += 1
            pool: Any = self._entries
        else:
            self.stats["index_hits"] += 1
            pool = candidates
        entries = self._entries
        if not residual:
            return [entries[r] for r in sorted(pool)]
        return [entries[r] for r in sorted(pool)
                if _entry_matches(entries[r], residual)]


class DataMeshNode:
    """One laboratory's federated data node.

    Parameters
    ----------
    sim, network:
        Kernel and transport.
    site / institution:
        Identity of the hosting lab.
    index:
        The shared :class:`DiscoveryIndex`.
    schemas:
        Local schema registry (a copy of community schemas, typically).
    governor:
        Optional FAIR governor auditing records on ingest.
    gateway:
        Optional zero-trust gateway; cross-site fetches are verified.
    index_latency_s:
        Asynchronous delay before a published record is discoverable
        (index replication lag).
    """

    def __init__(self, sim: "Simulator", network: "Network", site: str,
                 institution: str, index: DiscoveryIndex,
                 schemas: Optional[SchemaRegistry] = None,
                 governor: Optional[FairGovernor] = None,
                 gateway: Any = None,
                 index_latency_s: float = 0.5) -> None:
        self.sim = sim
        self.network = network
        self.site = site
        self.institution = institution
        self.index = index
        self.schemas = schemas or SchemaRegistry()
        self.governor = governor
        self.gateway = gateway
        self.provenance = ProvenanceGraph()
        self.index_latency_s = index_latency_s
        self._records: dict[str, DataRecord] = {}
        self.stats = {"ingested": 0, "served": 0, "denied": 0}

    # -- ingest -----------------------------------------------------------------

    def ingest(self, record: DataRecord) -> DataRecord:
        """Store a locally-produced record and schedule index publication."""
        record.site = record.site or self.site
        record.institution = record.institution or self.institution
        if self.governor is not None:
            self.governor.audit(record, time=self.sim.now,
                                indexed=False, schemas=self.schemas,
                                provenance=self.provenance)
        self._records[record.record_id] = record
        self.stats["ingested"] += 1
        entry = record.index_entry()
        # Index replication is asynchronous: discoverable after a lag.
        self.sim.schedule_callback(self.index_latency_s,
                                   lambda: self.index.publish(entry))
        return record

    def __len__(self) -> int:
        return len(self._records)

    def has(self, record_id: str) -> bool:
        return record_id in self._records

    def local_records(self) -> list[DataRecord]:
        return [self._records[k] for k in sorted(self._records)]

    # -- serving -------------------------------------------------------------------

    def _authorize(self, record: DataRecord, requester_token: Any,
                   requester_site: str) -> None:
        if self.gateway is None:
            return
        from repro.security.zerotrust import SecurityError
        msg = Message(Performative.REQUEST, sender=requester_site,
                      recipient=self.site)
        env = Envelope(message=msg, src_site=requester_site,
                       dst_site=self.site, token=requester_token,
                       enqueued_at=self.sim.now)
        # data:export is the governed action for data leaving the node;
        # the owning institution's policy decides (e.g. a record tagged
        # ``restricted`` never leaves).
        try:
            self.gateway.verify_resource(
                env, "data:export",
                {"sensitivity": record.sensitivity,
                 "record_id": record.record_id,
                 "institution": record.institution})
        except SecurityError as exc:
            raise AccessDenied(str(exc)) from exc

    def fetch(self, record_id: str, requester_site: str,
              requester_token: Any = None):
        """Generator: serve a record to a (possibly remote) requester.

        Index metadata is global, but the *data* transfer happens here —
        and only if policy allows it to leave.
        """
        record = self._records.get(record_id)
        if record is None:
            raise KeyError(f"{record_id} is not held at {self.site}")
        try:
            self._authorize(record, requester_token, requester_site)
        except AccessDenied:
            self.stats["denied"] += 1
            raise
        yield self.network.send(self.site, requester_site,
                                record.size_bytes())
        self.stats["served"] += 1
        return record

    # -- FAIR accounting -----------------------------------------------------------------

    def mean_fair_score(self) -> float:
        if not self._records:
            return 0.0
        scores = [fair_score(r, indexed=r.record_id in self.index,
                             schemas=self.schemas,
                             provenance=self.provenance).overall
                  for r in self._records.values()]
        return float(sum(scores) / len(scores))


class FederatedDataMesh:
    """Facade over all nodes: discovery + transparent cross-site fetch.

    Parameters
    ----------
    sim, network:
        Kernel and transport.
    index:
        Shared discovery index — a flat :class:`DiscoveryIndex` (default)
        or a :class:`~repro.data.shard.ShardedDiscoveryIndex` for
        facility-sharded federations.
    index_site:
        Where the discovery index is hosted (queries pay a WAN hop to
        it).  Defaults to the first *registered* node's site — recorded
        explicitly at :meth:`add_node` time so placement never depends
        on live dict iteration order.
    """

    def __init__(self, sim: "Simulator", network: "Network",
                 index: Any = None,
                 index_site: Optional[str] = None) -> None:
        self.sim = sim
        self.network = network
        self.index = index if index is not None else DiscoveryIndex()
        self.index_site = index_site
        self.nodes: dict[str, DataMeshNode] = {}

    def add_node(self, node: DataMeshNode) -> DataMeshNode:
        if node.site in self.nodes:
            raise ValueError(f"duplicate mesh node for site {node.site!r}")
        if node.index is not self.index:
            raise ValueError("node must share the mesh's discovery index")
        self.nodes[node.site] = node
        if self.index_site is None:
            self.index_site = node.site
        return node

    def make_node(self, site: str, institution: str, **kw: Any) -> DataMeshNode:
        node = DataMeshNode(self.sim, self.network, site, institution,
                            self.index, **kw)
        return self.add_node(node)

    def discover(self, from_site: str, **filters: Any):
        """Generator: query the index (pays one WAN hop to it)."""
        index_site = self.index_site if self.index_site is not None \
            else from_site
        yield self.network.send(from_site, index_site, 256.0)
        entries = self.index.query(**filters)
        yield self.network.send(index_site, from_site,
                                256.0 + 256.0 * len(entries))
        return entries

    def fetch(self, record_id: str, to_site: str, token: Any = None):
        """Generator: locate a record via the index and pull it."""
        entry = self.index.get(record_id)
        if entry is None:
            # Fall back to a scan of nodes (e.g. before index replication).
            for site in sorted(self.nodes):
                if self.nodes[site].has(record_id):
                    entry = {"site": site}
                    break
        if entry is None:
            raise KeyError(f"{record_id} not known to the federation")
        home = self.nodes[entry["site"]]
        record = yield from home.fetch(record_id, requester_site=to_site,
                                       requester_token=token)
        return record

    def merged_provenance(self, *, namespaced: bool = False
                          ) -> ProvenanceGraph:
        """Federation-wide provenance: every node's shard, merged.

        With ``namespaced=True`` each node's local ids are prefixed
        ``<site>::`` (the qualified form cross-shard
        ``wasDerivedFrom`` references use); without it, ids must already
        be globally unique (true for records minted by the per-world
        :class:`~repro.sim.ids.IdSequencer`).
        """
        return ProvenanceGraph.merge_shards(
            {site: self.nodes[site].provenance for site in sorted(self.nodes)},
            namespaced=namespaced)
