"""Tests for sites, links, and routing."""

import pytest

from repro.net import Link, NoPath, Site, Topology


def test_site_tags():
    s = Site.make("ornl", institution="ORNL", kind="user-facility", rank=1)
    assert s.tag("kind") == "user-facility"
    assert s.tag("rank") == 1
    assert s.tag("missing", "default") == "default"


def test_site_is_hashable_and_frozen():
    s = Site.make("x")
    assert hash(s) == hash(Site.make("x"))
    with pytest.raises(Exception):
        s.name = "y"  # type: ignore[misc]


def test_link_validation():
    with pytest.raises(ValueError):
        Link(latency_s=-1)
    with pytest.raises(ValueError):
        Link(bandwidth_Bps=0)
    with pytest.raises(ValueError):
        Link(jitter_s=-0.1)
    with pytest.raises(ValueError):
        Link(loss_prob=1.0)


def test_duplicate_site_rejected():
    topo = Topology()
    topo.add_site(Site.make("a"))
    with pytest.raises(ValueError):
        topo.add_site(Site.make("a"))


def test_connect_unknown_site_rejected():
    topo = Topology()
    topo.add_site(Site.make("a"))
    with pytest.raises(KeyError):
        topo.connect("a", "ghost")


def test_self_loop_rejected():
    topo = Topology()
    topo.add_site(Site.make("a"))
    with pytest.raises(ValueError):
        topo.connect("a", "a")


def test_shortest_path_prefers_low_latency():
    topo = Topology()
    for n in "abc":
        topo.add_site(Site.make(n))
    topo.connect("a", "b", Link(latency_s=0.100))
    topo.connect("a", "c", Link(latency_s=0.010))
    topo.connect("c", "b", Link(latency_s=0.010))
    assert topo.path("a", "b") == ["a", "c", "b"]


def test_path_with_blocked_edge_reroutes():
    topo = Topology()
    for n in "abc":
        topo.add_site(Site.make(n))
    topo.connect("a", "b", Link(latency_s=0.01))
    topo.connect("a", "c", Link(latency_s=0.05))
    topo.connect("c", "b", Link(latency_s=0.05))
    assert topo.path("a", "b") == ["a", "b"]
    assert topo.path("a", "b", blocked=[("a", "b")]) == ["a", "c", "b"]


def test_path_to_self_is_trivial():
    topo = Topology()
    topo.add_site(Site.make("a"))
    assert topo.path("a", "a") == ["a"]


def test_disconnected_raises():
    topo = Topology()
    topo.add_site(Site.make("a"))
    topo.add_site(Site.make("b"))
    with pytest.raises(NoPath):
        topo.path("a", "b")
    with pytest.raises(NoPath):
        topo.path("a", "ghost")


def test_path_links_alignment():
    topo = Topology()
    for n in "abc":
        topo.add_site(Site.make(n))
    l1 = topo.connect("a", "b", Link(latency_s=0.01))
    l2 = topo.connect("b", "c", Link(latency_s=0.02))
    assert topo.path_links(["a", "b", "c"]) == [l1, l2]


def test_national_lab_testbed_connected():
    for n in (2, 3, 5, 8, 12):
        topo = Topology.national_lab_testbed(n)
        assert len(topo.sites()) == n
        # every pair reachable
        for a in topo.sites():
            for b in topo.sites():
                assert topo.path(a.name, b.name)


def test_national_lab_testbed_min_size():
    with pytest.raises(ValueError):
        Topology.national_lab_testbed(1)
