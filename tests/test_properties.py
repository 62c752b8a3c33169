"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.comm.bus import topic_matches
from repro.core.metrics import reduction_fraction, speedup
from repro.data import DataRecord, fair_score
from repro.labsci import ContinuousDim, DiscreteDim, ParameterSpace
from repro.labsci.quantum_dots import quantum_dot_space
from repro.net import (FaultInjector, Link, Network, NoPath, Site, Topology,
                       Unreachable)
from repro.sim import RngRegistry, Simulator

# -- topic matching --------------------------------------------------------------

_segment = st.text(alphabet="abcxyz", min_size=1, max_size=4)
_topic = st.lists(_segment, min_size=1, max_size=5).map(".".join)


@given(_topic)
@settings(max_examples=80, deadline=None)
def test_property_topic_matches_itself(topic):
    assert topic_matches(topic, topic)
    assert topic_matches("#", topic)


@given(_topic)
@settings(max_examples=80, deadline=None)
def test_property_star_matches_any_single_segment(topic):
    segments = topic.split(".")
    for i in range(len(segments)):
        pattern = ".".join(segments[:i] + ["*"] + segments[i + 1:])
        assert topic_matches(pattern, topic)


@given(_topic, _segment)
@settings(max_examples=80, deadline=None)
def test_property_extra_segment_breaks_exact_match(topic, extra):
    assert not topic_matches(topic, topic + "." + extra)
    assert topic_matches(topic + ".#", topic + "." + extra)


# -- parameter spaces ------------------------------------------------------------------

def _bound_pairs(values):
    return (st.tuples(values, values).map(sorted)
            .filter(lambda b: b[0] < b[1]))


_bounds = _bound_pairs(st.floats(-1e6, 1e6))

#: Bounds for the sampler oracle, where ``sample``'s Python arithmetic
#: must round exactly as numpy's C ``uniform``: the usual range, integer
#: bounds, magnitudes near +-1e300 and subnormal spans.
_wide_bounds = st.one_of(
    _bounds,
    _bound_pairs(st.integers(-10**6, 10**6)),
    _bound_pairs(st.floats(-1e300, 1e300)),
    _bound_pairs(st.floats(-1e-310, 1e-310)),
)


@st.composite
def _spaces(draw, bounds=_bounds):
    """1-6 dims, continuous and discrete interleaved in any declared order
    (the domain spaces declare their discrete dims first)."""
    kinds = draw(st.lists(st.one_of(bounds, st.integers(2, 64)),
                          min_size=1, max_size=6))
    dims = []
    for i, kind in enumerate(kinds):
        if isinstance(kind, int):
            dims.append(DiscreteDim(f"x{i}",
                                    tuple(f"v{j}" for j in range(kind))))
        else:
            dims.append(ContinuousDim(f"x{i}", *kind))
    return ParameterSpace(dims)


@given(_spaces(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_property_samples_encode_into_unit_box(space, seed):
    rng = np.random.default_rng(seed)
    p = space.sample(rng)
    space.validate(p)
    v = space.encode(p)
    assert v.shape == (space.encoded_size,)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    # each discrete one-hot block sums to 1, wherever its dim is declared
    offset = 0
    for d in space.dims:
        if isinstance(d, DiscreteDim):
            block = v[offset:offset + len(d.choices)]
            assert block.sum() == pytest.approx(1.0)
            offset += len(d.choices)
        else:
            offset += 1


def legacy_sample(space, rng):
    """The retired scalar sampler: one RNG call per dimension, per point."""
    out = {}
    for d in space.dims:
        if isinstance(d, ContinuousDim):
            out[d.name] = float(rng.uniform(d.low, d.high))
        else:
            out[d.name] = str(rng.choice(list(d.choices)))
    return out


def _continuous(*bounds):
    return ParameterSpace([ContinuousDim(f"x{i}", low, high)
                           for i, (low, high) in enumerate(bounds)])


@given(_spaces(_wide_bounds), st.integers(0, 2**32 - 1), st.integers(1, 5))
@example(_continuous((0, 7), (-10**6, 3), (True, 2)), 11, 5)
@example(_continuous((-1e300, 1e300), (1e300, 1.7e308),
                     (-1.7e308, -1e300)), 11, 5)
@example(_continuous((0.0, 5e-324), (-1e-320, 3e-321),
                     (2.2e-308, 2.3e-308)), 11, 5)
@example(_continuous((1.0, np.nextafter(1.0, 2.0)),
                     (1e300, np.nextafter(1e300, np.inf)),
                     (-1e-9, 1e-9)), 11, 5)
@settings(max_examples=300, deadline=None)
def test_property_sample_replays_scalar_oracle(space, seed, k):
    """``sample`` consumes the stream exactly as the retired per-dim
    scalar loop and as ``sample_batch``'s one-row case: same dicts, key
    order and value types, and the same generator state afterwards.

    ``sample`` computes ``low + span * rng.random()`` in Python while
    ``legacy_sample`` and ``sample_batch`` call numpy's ``uniform``, which
    evaluates that expression in C; on a numpy build whose compiler fuses
    it into an FMA, the two round differently and this test fails."""
    rng = np.random.default_rng(seed)
    twin, twin2 = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(k):
        got = space.sample(rng)
        for want in (legacy_sample(space, twin),
                     space.decode_batch(space.sample_batch(twin2, 1))[0]):
            assert list(got.items()) == list(want.items())
            assert (list(map(type, got.values()))
                    == list(map(type, want.values())))
    assert (rng.bit_generator.state == twin.bit_generator.state
            == twin2.bit_generator.state)


#: Continuous bounds whose ``high - low`` is not a finite double: numpy's
#: ``uniform`` refuses them with OverflowError, and ``encode`` would turn
#: ``1e308`` into ``nan``.
_OVERFLOWING = [(-1e308, 1e308), (-np.inf, 0.0), (0.0, np.inf),
                (-np.inf, np.inf), (0, 10**400), (-10**400, 0)]


def test_overflowing_span_rejected_at_construction():
    """A dim whose span has no finite double never builds, so no space can
    sample or encode it."""
    for bounds in _OVERFLOWING:
        with pytest.raises(ValueError, match="finite"):
            ContinuousDim("wide", *bounds)


def test_zero_float_span_rejected_at_construction():
    """Integer bounds whose doubles are equal leave no float span: the
    high bound would encode as the low one, and every sample be ``low``."""
    for bounds in [(10**20, 10**20 + 1), (-2**53 - 1, -2**53)]:
        assert bounds[0] < bounds[1]
        with pytest.raises(ValueError, match="positive finite"):
            ContinuousDim("flat", *bounds)
    ContinuousDim("narrow", 2**53, 2**53 + 2)  # two doubles apart: builds


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic (no p-value machinery)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.sort(np.concatenate([a, b]), kind="mergesort")
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def test_batch_sampler_matches_scalar_distribution():
    """A many-row ``sample_batch`` fills each column before the next dim,
    so its variates differ from the scalar loop's; its distribution may
    not.  2,048 quantum-dot draws per side (seeds 101/202): per
    continuous dim a KS statistic <= 0.065 (the alpha=0.001 critical
    value is ~0.061), per discrete dim every choice frequency within
    0.05."""
    n = 2048
    space = quantum_dot_space()
    scalar_rng = np.random.default_rng(101)
    scalar = [legacy_sample(space, scalar_rng) for _ in range(n)]
    batch = space.decode_batch(
        space.sample_batch(np.random.default_rng(202), n))
    for d in space.dims:
        a = [p[d.name] for p in scalar]
        b = [p[d.name] for p in batch]
        if isinstance(d, ContinuousDim):
            assert _ks_statistic(np.asarray(a), np.asarray(b)) <= 0.065, d
        else:
            for c in d.choices:
                assert abs(a.count(c) - b.count(c)) / n <= 0.05, (d, c)


@given(_spaces(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_property_discrete_key_round_trip(space, seed):
    rng = np.random.default_rng(seed)
    p = space.sample(rng)
    key = space.discrete_key(p)
    cont = {d.name: p[d.name] for d in space.continuous}
    assert space.with_discrete(key, cont) == p


# -- metrics ---------------------------------------------------------------------------

@given(st.floats(0.001, 1e9), st.floats(0.001, 1e9))
@settings(max_examples=80, deadline=None)
def test_property_speedup_reduction_consistency(base, improved):
    s = speedup(base, improved)
    r = reduction_fraction(base, improved)
    assert s is not None and r is not None
    # speedup > 1 <=> positive reduction
    assert (s > 1.0) == (r > 0.0)
    assert r == pytest.approx(1.0 - 1.0 / s)


# -- FAIR score bounds -------------------------------------------------------------------

@given(st.booleans(), st.text(max_size=8), st.text(max_size=8),
       st.sampled_from(["", "open", "restricted"]),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_property_fair_scores_bounded(indexed, license_, technique,
                                      sensitivity, with_quality):
    rec = DataRecord(source="s", values={"x": 1.0},
                     license=license_, sensitivity=sensitivity,
                     metadata={"technique": technique} if technique else {},
                     quality={"score": 0.5} if with_quality else None)
    report = fair_score(rec, indexed=indexed)
    for attr in ("findable", "accessible", "interoperable", "reusable"):
        assert 0.0 <= getattr(report, attr) <= 1.0
    assert 0.0 <= report.overall <= 1.0


def test_property_fair_monotone_in_enrichment():
    bare = DataRecord(source="s", values={"x": 1.0})
    rich = DataRecord(source="s", values={"x": 1.0}, license="MIT",
                      metadata={"technique": "xrd", "units": {"x": "u"}},
                      quality={"score": 1.0})
    assert fair_score(rich, indexed=True).overall \
        > fair_score(bare, indexed=False).overall


# -- routing under faults ------------------------------------------------------------------

# Few distinct weights, zero among them: equal-cost ties are common.
_LATENCIES = (0.0, 0.01, 0.02, 0.03)
_GHOST = "ghost"  # a site name the topology does not know


def _build(names, edges):
    """A :class:`Topology` and an ``nx.Graph`` reference, built by the same
    add-site and connect calls in the same order."""
    topo, graph = Topology(), nx.Graph()
    for name in names:
        topo.add_site(Site.make(name))
        graph.add_node(name)
    for a, b, latency in edges:
        link = topo.connect(a, b, Link(latency_s=latency))
        graph.add_edge(a, b, link=link, weight=latency)
    return topo, graph


@st.composite
def _topologies(draw):
    """3-10 sites: a spanning chain plus random chords, connected in a
    drawn order (adjacency order decides equal-cost ties); returns the
    topology and its ``nx.Graph`` reference."""
    n = draw(st.integers(3, 10))
    names = [f"s{i}" for i in range(n)]
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    edges += [(a, b) for a, b in draw(st.lists(pairs, max_size=2 * n))
              if a != b]
    return _build(names, [(a, b, draw(st.sampled_from(_LATENCIES)))
                          for a, b in draw(st.permutations(edges))])


def _fault_steps(names):
    site = st.sampled_from(names + [_GHOST])
    duration = st.one_of(st.none(), st.sampled_from((1.0, 2.5, 5.0)))
    group = st.lists(site, min_size=1, max_size=3)
    return st.one_of(
        st.tuples(st.just("fail_link"), site, site, duration),
        st.tuples(st.just("fail_site"), site, duration),
        st.tuples(st.just("restore_link"), site, site),
        st.tuples(st.just("restore_site"), site),
        st.tuples(st.just("degrade_link"), site, site, duration),
        st.tuples(st.just("partition"), group, group, duration),
        st.tuples(st.just("heal_partitions")),
        st.tuples(st.just("advance"), st.sampled_from((0.5, 1.0, 2.5, 5.0))),
        st.tuples(st.just("grow"), st.sampled_from(names),
                  st.sampled_from(_LATENCIES)),
    )


def _apply(sim, net, graph, step):
    op, *args = step
    faults, topo = net.faults, net.topology
    if op == "advance":
        sim.run(until=sim.now + args[0])
    elif op == "grow":
        # A new site, routed to while isolated (which builds the routing
        # view), then linked to a drawn site: connect must drop the view.
        peer, latency = args
        name = f"g{len(graph)}"
        topo.add_site(Site.make(name))
        graph.add_node(name)
        with pytest.raises(NoPath):
            topo.path(peer, name, blocked=faults.blocked_edges(topo))
        link = topo.connect(peer, name, Link(latency_s=latency))
        graph.add_edge(peer, name, link=link, weight=latency)
    elif op == "degrade_link":
        a, b, duration = args
        faults.degrade_link(a, b, extra_loss=0.5, duration=duration)
    else:
        getattr(faults, op)(*args)


def _oracle_blocked(faults, topo):
    """Full scan: every down link plus every link touching a down site."""
    blocked = {e for e in list(faults._down_links) if faults.link_down(*e)}
    for a, b, _link in topo.links():
        if faults.site_down(a) or faults.site_down(b):
            blocked.add((a, b))
    return blocked


def _oracle_route(faults, topo, graph, src, dst):
    """Recompute from scratch with networkx on the reference graph, no
    memo."""
    if faults.site_down(src) or faults.site_down(dst) \
            or faults.partitioned(src, dst):
        raise Unreachable(f"{src} -> {dst}")
    blocked = _oracle_blocked(faults, topo)
    if src == dst:
        return [src]
    if blocked:
        graph = graph.copy()
        for a, b in sorted(blocked):
            if graph.has_edge(a, b):
                graph.remove_edge(a, b)
    try:
        return nx.shortest_path(graph, src, dst, weight="weight")
    except nx.NetworkXException as exc:
        raise Unreachable(f"{src} -> {dst}") from exc


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_property_route_matches_recomputing_oracle(data):
    """Memoized routes and the O(active-faults) blocked set equal a
    from-scratch recomputation after every step of a generated fault and
    growth script, for every pair of sites (and the ghost)."""
    topo, graph = data.draw(_topologies())
    names = [s.name for s in topo.sites()]
    script = data.draw(st.lists(_fault_steps(names), min_size=1, max_size=20))
    sim = Simulator()
    faults = FaultInjector(sim)
    net = Network(sim, topo, RngRegistry(0).stream("net"), faults)
    for step in [("advance", 0.0)] + script:
        _apply(sim, net, graph, step)
        assert faults.blocked_edges(topo) == _oracle_blocked(faults, topo)
        endpoints = list(graph) + [_GHOST]
        for src in endpoints:
            for dst in endpoints:
                try:
                    want = _oracle_route(faults, topo, graph, src, dst)
                except Unreachable:
                    with pytest.raises(Unreachable):
                        net.route(src, dst)
                else:
                    assert net.route(src, dst) == want, (step, src, dst)


# The four-site testbed: ring site-0..site-3 plus the site-0--site-2 chord,
# every link 0.02 s, so site-1 -> site-3 has two equal-latency routes.
_TESTBED_4 = (["site-0", "site-1", "site-2", "site-3"],
              [("site-0", "site-1", 0.02), ("site-1", "site-2", 0.02),
               ("site-2", "site-3", 0.02), ("site-3", "site-0", 0.02),
               ("site-0", "site-2", 0.02)])


@pytest.mark.parametrize("blocked, want", [
    # A one-way Dijkstra from site-1 settles site-0 first and goes through it.
    ((), ["site-1", "site-2", "site-3"]),
    # Dropping the chord from the adjacency in place keeps insertion order
    # and goes through site-2; networkx routes on a copy, whose order differs.
    ([("site-0", "site-2")], ["site-1", "site-0", "site-3"]),
])
def test_route_ties_match_networkx(blocked, want):
    topo = Topology.national_lab_testbed(4)
    _, graph = _build(*_TESTBED_4)
    faults = FaultInjector(Simulator())
    for a, b in blocked:
        faults.fail_link(a, b)
    assert _oracle_route(faults, topo, graph, "site-1", "site-3") == want
    assert topo.path("site-1", "site-3", blocked=blocked) == want
