"""Tests for the PROV-O-style provenance graph."""

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import ProvenanceGraph
from repro.data.provenance import (ASSOCIATED_WITH, ATTRIBUTED_TO,
                                   DERIVED_FROM, GENERATED_BY, INFORMED_BY,
                                   USED, qualified)


@pytest.fixture
def campaign_graph():
    """A small realistic lineage: plan -> synthesize -> measure -> record."""
    g = ProvenanceGraph()
    g.agent("planner-agent", kind="llm-planner")
    g.agent("robot-1", kind="synthesis-robot")
    g.agent("spec-1", kind="spectrometer")
    g.activity("plan-1", started=0.0, ended=1.0)
    g.was_associated_with("plan-1", "planner-agent")
    g.entity("recipe-1")
    g.was_generated_by("recipe-1", "plan-1")
    g.activity("synth-1", started=1.0, ended=100.0)
    g.was_associated_with("synth-1", "robot-1")
    g.used("synth-1", "recipe-1")
    g.was_informed_by("synth-1", "plan-1")
    g.entity("sample-1")
    g.was_generated_by("sample-1", "synth-1")
    g.activity("meas-1", started=100.0, ended=145.0)
    g.was_associated_with("meas-1", "spec-1")
    g.used("meas-1", "sample-1")
    g.entity("rec-1")
    g.was_generated_by("rec-1", "meas-1")
    g.was_derived_from("rec-1", "sample-1")
    return g


def test_node_types(campaign_graph):
    types = {node["id"]: node["prov_type"]
             for node in campaign_graph.to_dict()["nodes"]}
    assert types["planner-agent"] == "agent"
    assert types["synth-1"] == "activity"
    assert types["rec-1"] == "entity"
    assert len(campaign_graph) == 9


def test_type_conflict_rejected(campaign_graph):
    with pytest.raises(ValueError):
        campaign_graph.entity("planner-agent")


def test_relation_requires_known_nodes(campaign_graph):
    with pytest.raises(KeyError):
        campaign_graph.used("synth-1", "ghost")


def test_lineage_reaches_back_to_plan(campaign_graph):
    lineage = campaign_graph.lineage("rec-1")
    for ancestor in ("meas-1", "sample-1", "synth-1", "recipe-1", "plan-1",
                     "planner-agent", "robot-1", "spec-1"):
        assert ancestor in lineage


def test_responsible_agents(campaign_graph):
    agents = campaign_graph.responsible_agents("rec-1")
    assert set(agents) == {"planner-agent", "robot-1", "spec-1"}


def test_generating_activity(campaign_graph):
    assert campaign_graph.generating_activity("rec-1") == "meas-1"
    assert campaign_graph.generating_activity("sample-1") == "synth-1"


def test_generating_activity_survives_replay():
    """Two generating activities related out of id order: the least id is
    taken, live and after a to_dict/from_dict replay alike."""
    g = ProvenanceGraph()
    g.entity("e")
    g.activity("b", ended=2.0)
    g.activity("a")
    g.was_generated_by("e", "b")
    g.was_generated_by("e", "a")
    replay = ProvenanceGraph.from_dict(g.to_dict())
    assert g.generating_activity("e") == replay.generating_activity("e") == "a"
    assert g.completeness("e") == replay.completeness("e") == 0.25


def test_completeness_full(campaign_graph):
    assert campaign_graph.completeness("rec-1") == 1.0


def test_completeness_partial():
    g = ProvenanceGraph()
    g.entity("orphan")
    assert g.completeness("orphan") == 0.0
    g.activity("act", ended=0.0)  # no end time, no agent, no inputs
    g.entity("rec")
    g.was_generated_by("rec", "act")
    assert g.completeness("rec") == 0.25


def test_completeness_unknown_entity():
    assert ProvenanceGraph().completeness("ghost") == 0.0


def test_export_to_dict(campaign_graph):
    d = campaign_graph.to_dict()
    assert len(d["nodes"]) == 9
    kinds = {e["kind"] for e in d["edges"]}
    assert "wasGeneratedBy" in kinds
    assert "used" in kinds
    ids = [n["id"] for n in d["nodes"]]
    assert ids == sorted(ids)  # deterministic export order


# -- completeness edge cases (satellite coverage) ---------------------------


def test_completeness_no_generating_activity():
    g = ProvenanceGraph()
    g.entity("a")
    g.entity("b")
    g.was_derived_from("a", "b")  # derivation alone: no generating activity
    assert g.completeness("a") == 0.0


def test_completeness_derived_from_only_inputs_count():
    # Inputs recorded solely via wasDerivedFrom on the entity (no `used`
    # edge on the activity) must still earn the inputs quarter-point.
    g = ProvenanceGraph()
    g.entity("parent")
    g.entity("child")
    g.activity("make", started=1.0, ended=2.0)
    g.was_generated_by("child", "make")
    g.was_derived_from("child", "parent")
    assert g.completeness("child") == 0.75  # all but the agent check


def test_completeness_zero_ended_timestamp_not_credited():
    g = ProvenanceGraph()
    g.agent("robot")
    g.entity("in")
    g.entity("out")
    g.activity("act", started=5.0, ended=0.0)  # never closed
    g.was_generated_by("out", "act")
    g.was_associated_with("act", "robot")
    g.used("act", "in")
    assert g.completeness("out") == 0.75  # timestamp quarter withheld


# -- shard merge + cross-shard stitching ------------------------------------


def _shard(site, rec, parent=None):
    from repro.data.provenance import qualified
    g = ProvenanceGraph()
    g.entity(rec)
    g.activity(f"make-{rec}", started=0.0, ended=1.0)
    g.was_generated_by(rec, f"make-{rec}")
    if parent is not None:
        g.was_derived_from(rec, qualified(parent[0], parent[1]),
                           cross_shard=True)
    return g


def test_cross_shard_pending_until_merge():
    g = _shard("site-b", "rec-b", parent=("site-a", "rec-a"))
    assert g.pending_stitches == [("rec-b", "site-a::rec-a",
                                   "wasDerivedFrom")]
    assert g.edge_count == 1  # only the local wasGeneratedBy


def test_cross_shard_requires_local_entity():
    g = ProvenanceGraph()
    with pytest.raises(KeyError):
        g.was_derived_from("ghost", "site-a::rec-a", cross_shard=True)


def test_merge_shards_stitches_cross_references():
    a = _shard("site-a", "rec-a")
    b = _shard("site-b", "rec-b", parent=("site-a", "rec-a"))
    merged = ProvenanceGraph.merge_shards({"site-a": a, "site-b": b})
    assert merged.pending_stitches == []
    assert "site-a::rec-a" in merged
    assert "site-b::rec-b" in merged
    assert "site-a::rec-a" in merged.lineage("site-b::rec-b")


def test_merge_order_is_irrelevant_for_stitching():
    # The derived shard merging before its parent must still stitch once
    # the parent arrives.
    a = _shard("site-a", "rec-a")
    b = _shard("site-b", "rec-b", parent=("site-a", "rec-a"))
    merged = ProvenanceGraph()
    merged.merge_from(b, namespace="site-b")
    assert len(merged.pending_stitches) == 1
    stitched = merged.merge_from(a, namespace="site-a")
    assert stitched == 1
    assert merged.pending_stitches == []


def test_merge_without_namespace_keeps_ids():
    a = ProvenanceGraph()
    a.entity("rec-1")
    merged = ProvenanceGraph()
    merged.merge_from(a)
    assert "rec-1" in merged


def test_merge_type_collision_rejected():
    a = ProvenanceGraph()
    a.entity("x")
    b = ProvenanceGraph()
    b.agent("x")
    merged = ProvenanceGraph()
    merged.merge_from(a, namespace="s")
    with pytest.raises(ValueError):
        merged.merge_from(b, namespace="s")


def test_to_dict_carries_pending_and_from_dict_roundtrips():
    b = _shard("site-b", "rec-b", parent=("site-a", "rec-a"))
    d = b.to_dict()
    assert d["pending"] == [{"src": "rec-b", "dst": "site-a::rec-a",
                             "kind": "wasDerivedFrom"}]
    rebuilt = ProvenanceGraph.from_dict(d)
    assert rebuilt.to_dict() == d
    assert rebuilt.pending_stitches == b.pending_stitches


def test_from_dict_roundtrip_full_graph(campaign_graph):
    d = campaign_graph.to_dict()
    rebuilt = ProvenanceGraph.from_dict(d)
    assert rebuilt.to_dict() == d
    assert rebuilt.completeness("rec-1") == 1.0


def test_from_dict_rejects_dangling_edge(campaign_graph):
    # A replay archive with an edge to an unrecorded node must fail at
    # load time, not later inside responsible_agents() or a re-export.
    d = campaign_graph.to_dict()
    d["edges"].append({"src": "rec-1", "dst": "ghost",
                       "kind": "wasDerivedFrom"})
    with pytest.raises(KeyError, match="unknown provenance node 'ghost'"):
        ProvenanceGraph.from_dict(d)


# -- the dict graph against an nx.DiGraph reference --------------------------


class _NxProvenance:
    """Reference: the same PROV operations kept on an ``nx.DiGraph``."""

    def __init__(self):
        self.g = nx.DiGraph()
        self.pending = []

    def add(self, node, prov_type, **attrs):
        if node in self.g:
            if self.g.nodes[node]["prov_type"] != prov_type:
                raise ValueError(node)
            self.g.nodes[node].update(attrs)
        else:
            self.g.add_node(node, prov_type=prov_type, **attrs)

    def relate(self, src, dst, kind):
        if src not in self.g or dst not in self.g:
            raise KeyError((src, dst))
        self.g.add_edge(src, dst, kind=kind)

    def defer(self, src, dst):
        if src not in self.g:
            raise KeyError(src)
        self.pending.append((src, dst, DERIVED_FROM))

    def merge_from(self, other, prefix=""):
        for node in sorted(other.g.nodes):
            attrs = dict(other.g.nodes[node])
            self.add(prefix + node, attrs.pop("prov_type"), **attrs)
        for src, dst, kind in sorted(other.g.edges(data="kind")):
            self.g.add_edge(prefix + src, prefix + dst, kind=kind)
        self.pending += [(prefix + s, d, k) for s, d, k in other.pending]
        still = []
        for src, dst, kind in self.pending:
            if src in self.g and dst in self.g:
                self.g.add_edge(src, dst, kind=kind)
            else:
                still.append((src, dst, kind))
        self.pending = still

    def to_dict(self):
        out = {"nodes": [{"id": n, **self.g.nodes[n]}
                         for n in sorted(self.g.nodes)],
               "edges": [{"src": u, "dst": v, "kind": k}
                         for u, v, k in sorted(self.g.edges(data="kind"))]}
        if self.pending:
            out["pending"] = [{"src": s, "dst": d, "kind": k}
                              for s, d, k in sorted(self.pending)]
        return out

    def kind_of(self, node):
        return self.g.nodes[node]["prov_type"]

    def lineage(self, node):
        return sorted(nx.descendants(self.g, node))

    def completeness(self, node):
        if node not in self.g:
            return 0.0
        activity = min((dst for _, dst, kind
                        in self.g.out_edges(node, data="kind")
                        if kind == GENERATED_BY), default=None)
        if activity is None:
            return 0.0
        kinds = [k for _, _, k in self.g.out_edges(activity, data="kind")]
        own = [k for _, _, k in self.g.out_edges(node, data="kind")]
        return 0.25 * (1 + (ASSOCIATED_WITH in kinds)
                       + (USED in kinds or DERIVED_FROM in own)
                       + (self.g.nodes[activity].get("ended", 0.0) > 0.0))


_IDS = ("e0", "e1", "x0", "x1")
_SHARDS = ("site-a", "site-b", "site-c")
_RELATIONS = {USED: "used", GENERATED_BY: "was_generated_by",
              ASSOCIATED_WITH: "was_associated_with",
              DERIVED_FROM: "was_derived_from",
              INFORMED_BY: "was_informed_by",
              ATTRIBUTED_TO: "was_attributed_to"}

_node_op = st.one_of(
    st.tuples(st.just("entity"), st.sampled_from(_IDS)),
    st.tuples(st.just("agent"), st.sampled_from(_IDS)),
    st.tuples(st.just("activity"), st.sampled_from(_IDS),
              st.sampled_from((0.0, 2.0))),
)
_relate_op = st.tuples(st.just("relate"), st.sampled_from(sorted(_RELATIONS)),
                       st.sampled_from(_IDS), st.sampled_from(_IDS))
_cross_op = st.tuples(st.just("cross"), st.sampled_from(_IDS),
                      st.sampled_from(_SHARDS), st.sampled_from(_IDS))
# A few nodes first, then mostly relations: re-relating a pair with a new
# kind, cycles and cross-shard stitches all need edges between known nodes.
_prov_script = st.tuples(
    st.lists(_node_op, min_size=3, max_size=8),
    st.lists(st.one_of(_relate_op, _relate_op, _relate_op, _cross_op,
                       _node_op), min_size=8, max_size=30),
).map(lambda parts: parts[0] + parts[1])


def _apply_prov(graph, ref, op):
    """One operation on both sides: both raise the same type, or
    neither does."""
    name, *args = op
    if name == "activity":
        node, ended = args
        do = (lambda: graph.activity(node, started=1.0, ended=ended),
              lambda: ref.add(node, "activity", started=1.0, ended=ended))
    elif name == "relate":
        kind, src, dst = args
        do = (lambda: getattr(graph, _RELATIONS[kind])(src, dst),
              lambda: ref.relate(src, dst, kind))
    elif name == "cross":
        src, shard, node = args
        do = (lambda: graph.was_derived_from(src, qualified(shard, node),
                                             cross_shard=True),
              lambda: ref.defer(src, qualified(shard, node)))
    else:
        (node,) = args
        do = (lambda: getattr(graph, name)(node), lambda: ref.add(node, name))
    outcomes = []
    for call in do:
        try:
            call()
            outcomes.append(None)
        except (KeyError, ValueError) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1], op


def _assert_same(graph, ref):
    assert graph.to_dict() == ref.to_dict()
    assert len(graph) == ref.g.number_of_nodes()
    assert graph.edge_count == ref.g.number_of_edges()
    for node in sorted(ref.g.nodes):
        assert graph.lineage(node) == ref.lineage(node)
        assert graph.responsible_agents(node) == [
            n for n in ref.lineage(node) if ref.kind_of(n) == "agent"]
        assert graph.completeness(node) == ref.completeness(node)
    assert graph.completeness("ghost") == ref.completeness("ghost") == 0.0


@given(st.lists(_prov_script, min_size=1, max_size=3),
       st.booleans(), st.booleans())
@settings(max_examples=120, deadline=None)
@example([[("entity", "e0"), ("activity", "x0", 2.0),
           ("relate", USED, "e0", "x0"),  # re-related below: kind overwritten
           ("relate", INFORMED_BY, "x0", "e0"),  # a cycle
           ("relate", GENERATED_BY, "e0", "x0"),
           ("cross", "e0", "site-b", "e1")],
          [("entity", "e1"), ("relate", DERIVED_FROM, "e1", "e1")]],
         True, False)
def test_property_provenance_matches_networkx_reference(scripts, namespaced,
                                                        fold):
    """Generated operation scripts, one per shard, then a merge (into a
    fresh graph, or folded into the first shard) and a to_dict/from_dict
    round trip: every query equals the nx.DiGraph reference's."""
    shards, refs = {}, {}
    for name, script in zip(_SHARDS, scripts):
        graph, ref = ProvenanceGraph(), _NxProvenance()
        for op in script:
            _apply_prov(graph, ref, op)
        _assert_same(graph, ref)
        shards[name], refs[name] = graph, ref
    names = list(shards)
    if fold:
        merged, merged_ref, rest = shards[names[0]], refs[names[0]], names[1:]
    else:
        merged, merged_ref, rest = None, _NxProvenance(), names

    def merge_ref():
        for name in rest:
            merged_ref.merge_from(refs[name],
                                  f"{name}::" if namespaced else "")

    try:
        if fold:
            for name in rest:
                merged.merge_from(shards[name],
                                  namespace=name if namespaced else None)
        else:
            merged = ProvenanceGraph.merge_shards(shards,
                                                  namespaced=namespaced)
    except ValueError:  # a type collision across un-namespaced shards
        with pytest.raises(ValueError):
            merge_ref()
        return
    merge_ref()
    _assert_same(merged, merged_ref)
    _assert_same(ProvenanceGraph.from_dict(merged.to_dict()), merged_ref)
