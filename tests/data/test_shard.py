"""Tests for the facility-sharded discovery index."""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import DiscoveryIndex, ShardedDiscoveryIndex, shard_for
from repro.data.shard import ShardedDiscoveryIndex as _Direct
from repro.perf.workloads import _mesh_corpus


def entry(i, site, technique="powder-xrd", institution="inst-0"):
    return {"record_id": f"rec-{i:04d}", "schema_id": "synthesis@1",
            "site": site, "institution": institution, "source": "spec-1",
            "sensitivity": "open",
            "metadata": {"technique": technique}}


@pytest.fixture
def sharded():
    idx = ShardedDiscoveryIndex(n_shards=4)
    for i in range(20):
        idx.publish(entry(i, f"site-{i % 5}",
                          technique=("powder-xrd" if i % 2 else "uv-vis"),
                          institution=f"inst-{i % 3}"))
    return idx


def test_shard_for_is_deterministic_and_bounded():
    assert shard_for("site-0", 8) == shard_for("site-0", 8)
    for n in (1, 2, 7, 32):
        for i in range(40):
            assert 0 <= shard_for(f"site-{i}", n) < n


def test_shard_for_rejects_bad_count():
    with pytest.raises(ValueError):
        shard_for("site-0", 0)
    with pytest.raises(ValueError):
        ShardedDiscoveryIndex(0)


def test_reexport_is_same_class():
    assert _Direct is ShardedDiscoveryIndex


def test_same_site_lands_on_one_shard(sharded):
    rows = sharded.query(site="site-2")
    shard = sharded.shard_id("site-2")
    for row in rows:
        assert row["record_id"] in sharded.shards[shard]


def test_len_contains_get(sharded):
    assert len(sharded) == 20
    assert "rec-0003" in sharded
    assert "rec-9999" not in sharded
    assert sharded.get("rec-0003")["site"] == "site-3"
    assert sharded.get("rec-9999") is None


# -- flat-scan oracle ----------------------------------------------------------

#: Filter key -> value pool.  Indexed (``site``, ``institution``,
#: ``metadata.technique``), non-indexed (``sensitivity``,
#: ``metadata.color``) and the primary key; ``None`` joins every pool.
_FIELDS = {
    "record_id": tuple(f"rec-{i}" for i in range(6)),
    "site": ("", "site-0", "site-1", "site-2", "site-3"),
    "institution": ("inst-0", "inst-1"),
    "sensitivity": ("open", "restricted"),
    "metadata.technique": ("uv-vis", "powder-xrd"),
    "metadata.color": ("red", "blue"),
}


def _pool(key):
    return st.sampled_from(_FIELDS[key] + (None,))


#: Index entries: a record id plus any subset of the other fields.
_entries = st.fixed_dictionaries(
    {"record_id": st.sampled_from(_FIELDS["record_id"])},
    optional={"site": _pool("site"), "institution": _pool("institution"),
              "sensitivity": _pool("sensitivity"),
              "metadata": st.fixed_dictionaries({}, optional={
                  "technique": _pool("metadata.technique"),
                  "color": _pool("metadata.color")})})
_ops = st.lists(st.one_of(
    st.tuples(st.just("publish"), _entries),
    st.tuples(st.just("remove"), st.sampled_from(_FIELDS["record_id"]))),
    max_size=40)
_filters = st.lists(st.sampled_from(sorted(_FIELDS)), unique=True,
                    max_size=3).flatmap(lambda keys: st.fixed_dictionaries(
                        {k: _pool(k) for k in keys}))


def _flat_scan(rows, filters):
    """Keep the rows (sorted by record id) that every filter matches: a
    dotted key walks nested dicts, and a missing field reads as ``None``."""
    def field(entry, key):
        for part in key.split("."):
            entry = entry.get(part) if isinstance(entry, dict) else None
        return entry
    return [e for e in rows
            if all(field(e, k) == v for k, v in filters.items())]


_CORPUS, _CORPUS_QUERIES = _mesh_corpus(0, 1000, 5)


@given(ops=_ops, queries=st.lists(_filters, max_size=12),
       n_shards=st.integers(1, 5))
@example(ops=[("publish", e) for e in _CORPUS], queries=_CORPUS_QUERIES,
         n_shards=32)
@settings(max_examples=150, deadline=None)
def test_query_matches_flat_index(ops, queries, n_shards):
    """Both indexes answer every filter set exactly as a flat scan of
    the live entries does, after any publish/remove stream."""
    flat, sharded = DiscoveryIndex(), ShardedDiscoveryIndex(n_shards)
    live = {}
    for op, arg in ops:
        if op == "publish":
            live[arg["record_id"]] = arg
            flat.publish(arg)
            sharded.publish(arg)
        else:
            live.pop(arg, None)
            flat.remove(arg)
            sharded.remove(arg)
    rows = [entry for _, entry in sorted(live.items())]
    for filters in queries + [{}]:
        want = _flat_scan(rows, filters)
        assert flat.query(**filters) == want, filters
        assert sharded.query(**filters) == want, filters


def test_results_sorted_by_record_id(sharded):
    ids = [e["record_id"] for e in sharded.query()]
    assert ids == sorted(ids)


def test_site_and_pk_queries_route_fanouts_counted(sharded):
    before = dict(sharded.stats)
    sharded.query(site="site-1")
    sharded.query(record_id="rec-0002")
    sharded.query(**{"metadata.technique": "uv-vis"})
    stats = sharded.stats
    assert stats["routed_queries"] == before["routed_queries"] + 2
    assert stats["fanout_queries"] == before["fanout_queries"] + 1


def test_pk_query_for_unknown_record_is_empty(sharded):
    assert sharded.query(record_id="rec-9999") == []


def test_moved_site_republish_drops_stale_copy(sharded):
    moved = entry(3, "site-4")
    old_shard = sharded.shard_id("site-3")
    sharded.publish(moved)
    assert len(sharded) == 20
    assert sharded.get("rec-0003")["site"] == "site-4"
    assert ("rec-0003" in sharded.shards[old_shard]) == (
        old_shard == sharded.shard_id("site-4"))
    assert [e["record_id"] for e in sharded.query(site="site-3")
            if e["record_id"] == "rec-0003"] == []


def test_remove(sharded):
    sharded.remove("rec-0000")
    assert "rec-0000" not in sharded
    assert sharded.get("rec-0000") is None
    sharded.remove("rec-0000")  # idempotent
    assert len(sharded) == 19


def test_stats_aggregate_shard_counters(sharded):
    assert sharded.stats["publishes"] == 20
    sharded.query(site="site-0")
    assert sharded.stats["queries"] >= 1
    assert sharded.stats["index_hits"] >= 1


def test_shard_sizes_cover_all_entries(sharded):
    assert sum(sharded.shard_sizes()) == 20
    assert len(sharded.shard_sizes()) == 4


def test_index_hits_for_secondary_filters(sharded):
    hits_before = sharded.stats["index_hits"]
    misses_before = sharded.stats["index_misses"]
    sharded.query(**{"metadata.technique": "uv-vis"})
    assert sharded.stats["index_hits"] > hits_before
    assert sharded.stats["index_misses"] == misses_before


def test_unindexed_filter_scans(sharded):
    misses_before = sharded.stats["index_misses"]
    rows = sharded.query(**{"metadata.color": "blue"})
    assert rows == []
    assert sharded.stats["index_misses"] > misses_before


# -- shard fan-in (merge protocol) -------------------------------------------


def test_discovery_index_merge_from_combines_entries_and_stats():
    left, right = DiscoveryIndex(), DiscoveryIndex()
    for i in range(4):
        left.publish(entry(i, "site-0"))
    for i in range(4, 7):
        right.publish(entry(i, "site-1"))
    right.query(site="site-1")
    left.merge_from(right)
    assert len(left) == 7
    assert left.get("rec-0005")["site"] == "site-1"
    assert left.stats["publishes"] == 7
    assert left.stats["queries"] == 1
    # Secondary indexes cover the merged entries too.
    assert len(left.query(site="site-1")) == 3


def test_discovery_index_merge_conflict_incoming_wins():
    left, right = DiscoveryIndex(), DiscoveryIndex()
    left.publish(entry(0, "site-0", technique="uv-vis"))
    right.publish(entry(0, "site-0", technique="powder-xrd"))
    left.merge_from(right)
    assert len(left) == 1
    assert left.get("rec-0000")["metadata"]["technique"] == "powder-xrd"
    assert [e["record_id"] for e in
            left.query(**{"metadata.technique": "uv-vis"})] == []


def test_discovery_index_state_is_deterministic_snapshot():
    idx = DiscoveryIndex()
    for i in (3, 1, 2):
        idx.publish(entry(i, "site-0"))
    state = idx.state()
    assert [e["record_id"] for e in state["entries"]] == [
        "rec-0001", "rec-0002", "rec-0003"]
    assert state["stats"]["publishes"] == 3


def test_sharded_merge_matches_single_index(sharded):
    other = ShardedDiscoveryIndex(n_shards=4)
    for i in range(20, 30):
        other.publish(entry(i, f"site-{i % 5}"))
    sharded.merge_from(other)
    assert len(sharded) == 30
    assert sum(sharded.shard_sizes()) == 30
    # Merged entries are query-routable exactly like locally-published ones.
    assert sharded.get("rec-0025")["site"] == "site-0"
    assert any(e["record_id"] == "rec-0025"
               for e in sharded.query(site="site-0"))
    flat_state = sharded.state()
    assert flat_state["n_shards"] == 4
    assert sum(len(s["entries"]) for s in flat_state["shards"]) == 30


@given(stream=st.lists(_entries, max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=4),
       make=st.sampled_from([DiscoveryIndex] + [
           partial(ShardedDiscoveryIndex, n) for n in (1, 2, 3, 5)]))
@settings(max_examples=150, deadline=None)
def test_merged_chunks_equal_one_index(stream, cuts, make):
    """Cut a publish stream into chunks, index each chunk on its own and
    merge them left to right: the result is the index fed the whole
    stream, including records that moved site between chunks."""
    whole = make()
    for entry in stream:
        whole.publish(entry)
    bounds = sorted({0, len(stream), *(min(c, len(stream)) for c in cuts)})
    merged = make()
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = make()
        for entry in stream[lo:hi]:
            chunk.publish(entry)
        merged.merge_from(chunk)
    assert len(merged) == len(whole)
    for record_id in _FIELDS["record_id"]:
        assert merged.get(record_id) == whole.get(record_id)
    assert merged.query() == whole.query()


def test_sharded_merge_rejects_mismatched_shard_counts(sharded):
    with pytest.raises(ValueError):
        sharded.merge_from(ShardedDiscoveryIndex(n_shards=8))
