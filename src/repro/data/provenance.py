"""PROV-O-style provenance graphs (§3.2, ref [13]).

"Integration of data provenance frameworks (e.g., PROV-O) into instrument
middleware will ensure comprehensive traceability of autonomous decisions
across distributed facilities."

The model follows PROV's core trio — entities (data, samples), activities
(syntheses, measurements, analyses, decisions), agents (AI planners,
instruments, humans) — with the standard relations as typed edges of a
directed graph held in plain dicts.
"""

from __future__ import annotations

from typing import Any, Optional

#: PROV relation names used as edge ``kind``.
USED = "used"
GENERATED_BY = "wasGeneratedBy"
ASSOCIATED_WITH = "wasAssociatedWith"
DERIVED_FROM = "wasDerivedFrom"
INFORMED_BY = "wasInformedBy"
ATTRIBUTED_TO = "wasAttributedTo"


#: Separator between a shard namespace and a local node id in qualified
#: (cross-shard) node names: ``site-3::rec-0042``.
NAMESPACE_SEP = "::"


def qualified(namespace: str, node_id: str) -> str:
    """Fully-qualified cross-shard name for a node held by ``namespace``."""
    return f"{namespace}{NAMESPACE_SEP}{node_id}" if namespace else node_id


class ProvenanceGraph:
    """A typed provenance DAG with PROV-O relation vocabulary.

    Graphs are *mergeable*: each facility keeps its own shard, and
    :meth:`merge_from` / :meth:`merge_shards` assemble federation-wide
    views, optionally namespacing node ids by shard.  Cross-shard
    derivations recorded with ``was_derived_from(..., cross_shard=True)``
    stay *pending* until a merge brings the referenced foreign node in,
    at which point they are stitched into real edges.
    """

    def __init__(self) -> None:
        # Node id -> attributes, ``prov_type`` first.
        self._nodes: dict[str, dict[str, Any]] = {}
        # src -> {dst: kind}; re-relating a pair overwrites its kind.
        self._out: dict[str, dict[str, str]] = {}
        # Deferred cross-shard relations: (src, fully-qualified dst, kind).
        self._pending: list[tuple[str, str, str]] = []

    # -- node creation ---------------------------------------------------------

    def _add_node(self, node_id: str, prov_type: str, **attrs: Any) -> str:
        node = self._nodes.get(node_id)
        if node is not None:
            if node["prov_type"] != prov_type:
                raise ValueError(
                    f"{node_id!r} already recorded as {node['prov_type']}")
            node.update(attrs)
            return node_id
        self._nodes[node_id] = {"prov_type": prov_type, **attrs}
        self._out[node_id] = {}
        return node_id

    def entity(self, entity_id: str, **attrs: Any) -> str:
        """Record a data/sample entity."""
        return self._add_node(entity_id, "entity", **attrs)

    def activity(self, activity_id: str, *, started: float = 0.0,
                 ended: float = 0.0, **attrs: Any) -> str:
        """Record an activity (synthesis, measurement, agent decision...)."""
        return self._add_node(activity_id, "activity", started=started,
                              ended=ended, **attrs)

    def agent(self, agent_id: str, **attrs: Any) -> str:
        """Record an agent (AI planner, instrument, human operator)."""
        return self._add_node(agent_id, "agent", **attrs)

    # -- relations ----------------------------------------------------------------

    def _relate(self, src: str, dst: str, kind: str) -> None:
        for node in (src, dst):
            if node not in self._nodes:
                raise KeyError(f"unknown provenance node {node!r}")
        self._out[src][dst] = kind

    def used(self, activity: str, entity: str) -> None:
        self._relate(activity, entity, USED)

    def was_generated_by(self, entity: str, activity: str) -> None:
        self._relate(entity, activity, GENERATED_BY)

    def was_associated_with(self, activity: str, agent: str) -> None:
        self._relate(activity, agent, ASSOCIATED_WITH)

    def was_derived_from(self, entity: str, source_entity: str, *,
                         cross_shard: bool = False) -> None:
        """Entity derivation; ``cross_shard=True`` defers the edge.

        A cross-shard derivation names a *foreign* source by its
        fully-qualified id (see :func:`qualified`); the edge is recorded
        as pending and stitched when a merge brings that node in.
        """
        if cross_shard:
            if entity not in self._nodes:
                raise KeyError(f"unknown provenance node {entity!r}")
            self._pending.append((entity, source_entity, DERIVED_FROM))
            return
        self._relate(entity, source_entity, DERIVED_FROM)

    def was_informed_by(self, activity: str, earlier_activity: str) -> None:
        self._relate(activity, earlier_activity, INFORMED_BY)

    def was_attributed_to(self, entity: str, agent: str) -> None:
        self._relate(entity, agent, ATTRIBUTED_TO)

    # -- shard merging -----------------------------------------------------------------

    @property
    def pending_stitches(self) -> list[tuple[str, str, str]]:
        """Unresolved cross-shard relations, ``(src, dst, kind)``."""
        return sorted(self._pending)

    def _stitch(self) -> int:
        """Turn every resolvable pending relation into a real edge."""
        stitched, still_pending = 0, []
        for src, dst, kind in self._pending:
            if src in self._nodes and dst in self._nodes:
                self._relate(src, dst, kind)
                stitched += 1
            else:
                still_pending.append((src, dst, kind))
        self._pending = still_pending
        return stitched

    def merge_from(self, other: "ProvenanceGraph", *,
                   namespace: Optional[str] = None) -> int:
        """Copy ``other``'s shard into this graph; returns edges stitched.

        With ``namespace`` every one of ``other``'s node ids is prefixed
        ``<namespace>::`` — its *local* naming scope.  Pending cross-shard
        references are **not** prefixed: they already name foreign nodes
        by fully-qualified id, which is exactly what lets them resolve
        once the owning shard merges in under that namespace.  Node-id
        collisions with a different ``prov_type`` raise ``ValueError``
        (same contract as local node creation).
        """
        prefix = f"{namespace}{NAMESPACE_SEP}" if namespace else ""
        for node_id in sorted(other._nodes):
            attrs = dict(other._nodes[node_id])
            prov_type = attrs.pop("prov_type")
            self._add_node(prefix + node_id, prov_type, **attrs)
        for src, dst, kind in other._edges():
            self._relate(prefix + src, prefix + dst, kind)
        for src, dst, kind in other._pending:
            self._pending.append((prefix + src, dst, kind))
        return self._stitch()

    @classmethod
    def merge_shards(cls, shards: "dict[str, ProvenanceGraph]", *,
                     namespaced: bool = True) -> "ProvenanceGraph":
        """One federation-wide graph from per-facility shards.

        Shards merge in sorted-key order (determinism); with
        ``namespaced=True`` each shard's ids live under its key.
        """
        merged = cls()
        for name in sorted(shards):
            merged.merge_from(shards[name],
                              namespace=name if namespaced else None)
        return merged

    # -- queries -----------------------------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of recorded relations (pending stitches excluded)."""
        return sum(map(len, self._out.values()))

    def _edges(self) -> list[tuple[str, str, str]]:
        """Every relation as ``(src, dst, kind)``, sorted by ``(src, dst)``."""
        return sorted((src, dst, kind) for src, out in self._out.items()
                      for dst, kind in out.items())

    @staticmethod
    def _reachable(adj: dict[str, Any], start: str) -> list[str]:
        """Every node reachable from ``start`` in ``adj``, except ``start``
        itself, sorted."""
        seen, stack = {start}, [start]
        while stack:
            for node in adj[stack.pop()]:
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        seen.discard(start)
        return sorted(seen)

    def lineage(self, entity_id: str) -> list[str]:
        """Every node reachable from ``entity_id`` along provenance edges.

        This answers "how was this number produced?" — the full upstream
        closure of samples, activities, and agents.
        """
        if entity_id not in self._nodes:
            raise KeyError(entity_id)
        return self._reachable(self._out, entity_id)

    def responsible_agents(self, entity_id: str) -> list[str]:
        """All agents in the entity's lineage — who to ask about it."""
        return [n for n in self.lineage(entity_id)
                if self._nodes[n]["prov_type"] == "agent"]

    def generating_activity(self, entity_id: str) -> Optional[str]:
        """The activity that generated ``entity_id``, or ``None``.

        Where several are recorded the least id is taken, not the first
        related: :meth:`to_dict` sorts edges, so only an order-free choice
        lets a :meth:`from_dict` replay answer as the live graph does.
        """
        return min((dst for dst, kind in self._out.get(entity_id, {}).items()
                    if kind == GENERATED_BY), default=None)

    # -- completeness metric (E9) ---------------------------------------------------------

    def completeness(self, entity_id: str) -> float:
        """Fraction of provenance questions answerable for an entity.

        Checks: (1) a generating activity exists, (2) that activity has an
        associated agent, (3) the activity's inputs are recorded (``used``
        edge or a ``wasDerivedFrom``), (4) timestamps present.
        """
        if entity_id not in self._nodes:
            return 0.0
        score = 0.0
        activity = self.generating_activity(entity_id)
        if activity is not None:
            score += 0.25
            kinds = self._out[activity].values()
            if ASSOCIATED_WITH in kinds:
                score += 0.25
            has_inputs = (USED in kinds
                          or DERIVED_FROM in self._out[entity_id].values())
            if has_inputs:
                score += 0.25
            if self._nodes[activity].get("ended", 0.0) > 0.0:
                score += 0.25
        return score

    # -- export ------------------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-shaped export (PROV-JSON-like)."""
        out: dict[str, Any] = {
            "nodes": [{"id": n, **self._nodes[n]} for n in
                      sorted(self._nodes)],
            "edges": [{"src": u, "dst": v, "kind": k}
                      for u, v, k in self._edges()],
        }
        if self._pending:
            out["pending"] = [{"src": s, "dst": d, "kind": k}
                              for s, d, k in self.pending_stitches]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProvenanceGraph":
        """Rebuild a graph from :meth:`to_dict` output (replay path).

        An edge naming a node the export does not record raises
        ``KeyError``, as :meth:`used` and the other relations do.
        """
        graph = cls()
        for node in data.get("nodes", ()):
            attrs = dict(node)
            node_id = attrs.pop("id")
            prov_type = attrs.pop("prov_type")
            graph._add_node(node_id, prov_type, **attrs)
        for edge in data.get("edges", ()):
            graph._relate(edge["src"], edge["dst"], edge["kind"])
        for edge in data.get("pending", ()):
            graph._pending.append((edge["src"], edge["dst"], edge["kind"]))
        return graph
