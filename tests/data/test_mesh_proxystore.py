"""Tests for the federated data mesh and the proxy store."""

import numpy as np
import pytest

from repro.data import DataRecord, FederatedDataMesh, Proxy, ProxyStore
from repro.data.mesh import AccessDenied
from repro.security import (FederatedIdentityProvider, Identity, PolicyEngine,
                            TrustFabric, ZeroTrustGateway)
from repro.security.abac import (allow_all_within_federation,
                                 standard_lab_policy)


@pytest.fixture
def mesh(sim, testbed_network):
    mesh = FederatedDataMesh(sim, testbed_network)
    for i in range(3):
        mesh.make_node(f"site-{i}", institution=f"inst-{i}",
                       index_latency_s=0.5)
    return mesh


def run(sim, gen):
    out = {}

    def proc():
        out["r"] = yield from gen
    sim.process(proc())
    sim.run()
    return out["r"]


def rec(**kw):
    defaults = dict(source="spec-1", values={"plqy": 0.4})
    defaults.update(kw)
    return DataRecord(**defaults)


def test_ingest_sets_site_and_institution(mesh, sim):
    node = mesh.nodes["site-0"]
    r = node.ingest(rec())
    assert r.site == "site-0"
    assert r.institution == "inst-0"
    assert node.has(r.record_id)


def test_index_replication_is_asynchronous(mesh, sim):
    node = mesh.nodes["site-0"]
    r = node.ingest(rec())
    assert r.record_id not in mesh.index  # not yet replicated
    sim.run(until=1.0)
    assert r.record_id in mesh.index


def test_cross_site_discovery(mesh, sim):
    mesh.nodes["site-1"].ingest(rec(metadata={"technique": "powder-xrd"}))
    mesh.nodes["site-2"].ingest(rec(metadata={"technique": "pl"}))
    sim.run(until=1.0)
    entries = run(sim, mesh.discover("site-0",
                                     **{"metadata.technique": "powder-xrd"}))
    assert len(entries) == 1
    assert entries[0]["site"] == "site-1"


def test_index_never_carries_raw_payload(mesh, sim):
    big = np.zeros(10_000)
    node = mesh.nodes["site-0"]
    r = node.ingest(rec(raw={"image": big}))
    sim.run(until=1.0)
    entry = mesh.index.query(record_id=r.record_id)[0]
    assert "raw" not in entry
    assert "image" not in str(entry.get("keys"))


def test_fetch_from_remote_site(mesh, sim):
    node1 = mesh.nodes["site-1"]
    r = node1.ingest(rec())
    sim.run(until=1.0)
    got = run(sim, mesh.fetch(r.record_id, to_site="site-0"))
    assert got.record_id == r.record_id
    assert node1.stats["served"] == 1


def test_fetch_before_index_replication_falls_back(mesh, sim):
    r = mesh.nodes["site-2"].ingest(rec())
    got = run(sim, mesh.fetch(r.record_id, to_site="site-0"))
    assert got.record_id == r.record_id


def test_fetch_unknown_record(mesh, sim):
    def proc():
        with pytest.raises(KeyError):
            yield from mesh.fetch("ghost", to_site="site-0")
    sim.process(proc())
    sim.run()


def test_duplicate_node_rejected(mesh, sim):
    with pytest.raises(ValueError):
        mesh.make_node("site-0", institution="other")


# -- sovereignty via zero trust --------------------------------------------------------

@pytest.fixture
def secured_mesh(sim, testbed_network):
    fabric = TrustFabric()
    for inst in ("inst-0", "inst-1"):
        idp = FederatedIdentityProvider(sim, inst)
        idp.enroll(Identity.make(f"agent@{inst}", inst, role="agent"))
        fabric.add_provider(idp)
    fabric.federate()
    engine = PolicyEngine(allow_all_within_federation())
    engine.set_policy("inst-1", standard_lab_policy("inst-1"))
    gateway = ZeroTrustGateway(
        sim, fabric, engine,
        site_institution={"site-0": "inst-0", "site-1": "inst-1"})
    mesh = FederatedDataMesh(sim, testbed_network)
    mesh.make_node("site-0", institution="inst-0", gateway=gateway)
    mesh.make_node("site-1", institution="inst-1", gateway=gateway)
    return mesh, fabric


def test_restricted_data_never_leaves_institution(secured_mesh, sim):
    mesh, fabric = secured_mesh
    node1 = mesh.nodes["site-1"]
    r = node1.ingest(rec(sensitivity="restricted"))
    sim.run(until=1.0)
    token = fabric.provider("inst-0").issue("agent@inst-0")

    def proc():
        with pytest.raises(AccessDenied):
            yield from mesh.fetch(r.record_id, to_site="site-0", token=token)

    sim.process(proc())
    sim.run()
    assert node1.stats["denied"] == 1


def test_open_data_flows_with_valid_token(secured_mesh, sim):
    mesh, fabric = secured_mesh
    r = mesh.nodes["site-1"].ingest(rec(sensitivity="open"))
    sim.run(until=1.0)
    token = fabric.provider("inst-0").issue("agent@inst-0")
    got = run(sim, mesh.fetch(r.record_id, to_site="site-0", token=token))
    assert got.record_id == r.record_id


def test_local_principal_can_export_restricted(secured_mesh, sim):
    mesh, fabric = secured_mesh
    idp = fabric.provider("inst-1")
    idp.enroll(Identity.make("local@inst-1", "inst-1", role="agent"))
    r = mesh.nodes["site-1"].ingest(rec(sensitivity="restricted"))
    sim.run(until=1.0)
    token = idp.issue("local@inst-1")
    got = run(sim, mesh.fetch(r.record_id, to_site="site-0", token=token))
    assert got.record_id == r.record_id


# -- proxy store -------------------------------------------------------------------------

@pytest.fixture
def stores(sim, testbed_network):
    peers: dict = {}
    return {f"site-{i}": ProxyStore(sim, testbed_network, f"site-{i}", peers)
            for i in range(3)}


def test_proxy_is_tiny(stores):
    big = np.zeros(100_000)
    proxy = stores["site-0"].put(big)
    assert proxy.wire_size() < 200
    assert proxy.size_bytes > 700_000


def test_local_resolution_instant(sim, stores):
    obj = {"x": 1}
    proxy = stores["site-0"].put(obj)
    got = run(sim, stores["site-0"].resolve(proxy))
    assert got is obj
    assert sim.now == 0.0


def test_remote_resolution_pays_transfer_once(sim, stores):
    big = np.zeros(1_000_000)  # 8 MB
    proxy = stores["site-0"].put(big)
    remote = stores["site-2"]

    def proc():
        t0 = sim.now
        got = yield from remote.resolve(proxy)
        first = sim.now - t0
        assert got is big
        t1 = sim.now
        yield from remote.resolve(proxy)
        second = sim.now - t1
        assert first > 0.005  # real transfer time for 8 MB over WAN
        assert second == 0.0  # cached

    sim.process(proc())
    sim.run()
    assert remote.stats["remote_fetches"] == 1
    assert remote.stats["cache_hits"] == 1


def test_evicted_object_unresolvable(sim, stores):
    # A proxy whose object its home store does not hold.
    proxy = Proxy(key="proxy-gone", home_site="site-0", size_bytes=24.0)

    def proc():
        with pytest.raises(KeyError):
            yield from stores["site-1"].resolve(proxy)

    sim.process(proc())
    sim.run()


def test_unknown_home_site(sim, stores):
    from repro.data.proxystore import Proxy
    orphan = Proxy(key="proxy-x", home_site="nowhere", size_bytes=10.0)

    def proc():
        with pytest.raises(KeyError):
            yield from stores["site-0"].resolve(orphan)

    sim.process(proc())
    sim.run()


# -- PR 7 satellites: index routing stats + explicit index hosting ----------


def test_explicit_index_site_constructor(sim, testbed_network):
    mesh = FederatedDataMesh(sim, testbed_network, index_site="site-2")
    for i in range(3):
        mesh.make_node(f"site-{i}", institution=f"inst-{i}")
    assert mesh.index_site == "site-2"  # not overwritten by add_node


def test_default_index_site_is_first_registered_node(mesh):
    assert mesh.index_site == "site-0"


def test_pure_record_id_query_is_an_index_hit(mesh, sim):
    r = mesh.nodes["site-0"].ingest(rec())
    sim.run(until=1.0)
    before = dict(mesh.index.stats)
    [entry] = mesh.index.query(record_id=r.record_id)
    assert entry["record_id"] == r.record_id
    assert mesh.index.stats["index_hits"] == before["index_hits"] + 1
    assert mesh.index.stats["index_misses"] == before["index_misses"]


def test_fetch_counts_index_hit(mesh, sim):
    r = mesh.nodes["site-1"].ingest(rec())
    sim.run(until=1.0)
    before = mesh.index.stats["index_hits"]
    fetched = run(sim, mesh.fetch(r.record_id, to_site="site-0"))
    assert fetched.record_id == r.record_id
    assert mesh.index.stats["index_hits"] == before + 1


def test_fetch_fallback_counts_index_miss(mesh, sim):
    r = mesh.nodes["site-1"].ingest(rec())
    # No sim.run: index replication has not happened yet.
    before = mesh.index.stats["index_misses"]
    fetched = run(sim, mesh.fetch(r.record_id, to_site="site-0"))
    assert fetched.record_id == r.record_id
    assert mesh.index.stats["index_misses"] == before + 1


def test_mesh_accepts_sharded_index(sim, testbed_network):
    from repro.data import ShardedDiscoveryIndex
    mesh = FederatedDataMesh(sim, testbed_network,
                             index=ShardedDiscoveryIndex(n_shards=2))
    for i in range(3):
        mesh.make_node(f"site-{i}", institution=f"inst-{i}")
    r = mesh.nodes["site-1"].ingest(rec(metadata={"technique": "saxs"}))
    sim.run(until=1.0)
    entries = run(sim, mesh.discover("site-0",
                                     **{"metadata.technique": "saxs"}))
    assert [e["record_id"] for e in entries] == [r.record_id]
    fetched = run(sim, mesh.fetch(r.record_id, to_site="site-2"))
    assert fetched.record_id == r.record_id


def test_merged_provenance_namespaces_by_site(mesh, sim):
    from repro.data.provenance import qualified
    r0 = mesh.nodes["site-0"].ingest(rec())
    mesh.nodes["site-0"].provenance.entity(r0.record_id)
    r1 = mesh.nodes["site-1"].ingest(rec())
    mesh.nodes["site-1"].provenance.entity(r1.record_id)
    mesh.nodes["site-1"].provenance.was_derived_from(
        r1.record_id, qualified("site-0", r0.record_id), cross_shard=True)
    merged = mesh.merged_provenance(namespaced=True)
    assert qualified("site-0", r0.record_id) in merged
    assert merged.pending_stitches == []
    assert qualified("site-0", r0.record_id) in merged.lineage(
        qualified("site-1", r1.record_id))
