"""Tests for the compiled route index: trie-vs-oracle equivalence and
broker-side invalidation (bind after traffic, kill/revive, overlap dedup).
"""

import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Message, MessageBus, Performative
from repro.comm.bus import RouteIndex, topic_matches
from repro.perf.workloads import _routing_tables


# -- RouteIndex vs a regex linear-scan oracle ----------------------------------

@lru_cache(maxsize=None)
def _oracle_regex(pattern):
    """The pattern as a regex over ``.``-prefixed segments: ``*`` is one
    segment, ``#`` zero or more, anything else itself."""
    wild = {"*": r"\.[^.]*", "#": r"(?:\.[^.]*)*"}
    return re.compile("".join(wild.get(seg, r"\." + re.escape(seg))
                              for seg in pattern.split(".")))


def _oracle_match(bindings, topic):
    """Scan every binding, dedup by queue, first-binding order."""
    seen, out = set(), []
    for pattern, qname in bindings:
        if qname not in seen and _oracle_regex(pattern).fullmatch("." + topic):
            seen.add(qname)
            out.append(qname)
    return tuple(out)


def _random_tables(seed, n_bindings=120, n_topics=300):
    rng = np.random.default_rng(seed)
    alphabet = ("a", "b", "c", "*", "#")
    bindings = []
    for i in range(n_bindings):
        n_seg = int(rng.integers(1, 6))
        segs = [alphabet[int(rng.integers(len(alphabet)))]
                for _ in range(n_seg)]
        bindings.append((".".join(segs), f"q-{int(rng.integers(20))}"))
    topics = []
    for _ in range(n_topics):
        n_seg = int(rng.integers(1, 7))
        topics.append(".".join(
            ("a", "b", "c")[int(rng.integers(3))] for _ in range(n_seg)))
    return bindings, topics


@pytest.mark.parametrize("tables", [
    *(pytest.param(_random_tables(seed), id=str(seed)) for seed in range(4)),
    pytest.param(_routing_tables(0), id="federation-broker"),
])
def test_route_index_equals_oracle_on_random_tables(tables):
    bindings, topics = tables
    index = RouteIndex(bindings)
    for topic in topics:
        assert index.match(topic) == _oracle_match(bindings, topic), topic


_pattern_segments = st.sampled_from(("a", "b", "", "*", "#", "#"))
_topic_segments = st.sampled_from(("a", "b", "", "*"))


@given(bindings=st.lists(st.tuples(
           st.lists(_pattern_segments, min_size=1, max_size=6).map(".".join),
           st.sampled_from(("q0", "q1", "q2", "q3"))), max_size=12),
       topics=st.lists(st.lists(_topic_segments, min_size=1,
                                max_size=6).map(".".join), max_size=12))
@settings(max_examples=200, deadline=None)
def test_property_route_index_matches_regex_oracle(bindings, topics):
    """Generated bindings with several ``#``, ``*`` and empty segments:
    ``topic_matches`` and ``RouteIndex.match`` agree with the oracle."""
    index = RouteIndex(bindings)
    for topic in topics:
        for pattern, _ in bindings:
            assert topic_matches(pattern, topic) == bool(
                _oracle_regex(pattern).fullmatch("." + topic)), (pattern, topic)
        assert index.match(topic) == _oracle_match(bindings, topic), topic


def test_route_index_empty_bindings():
    assert RouteIndex([]).match("a.b.c") == ()


def test_route_index_dedups_in_first_binding_order():
    bindings = [("lab.#", "late"), ("lab.*.xrd", "early"),
                ("lab.a.#", "late"), ("#", "early")]
    # 'late' first binding precedes 'early' first binding? No: 'late' is
    # binding 0, 'early' is binding 1 — delivery order follows that.
    assert RouteIndex(bindings).match("lab.a.xrd") == ("late", "early")


def test_route_index_hash_tail_and_middle():
    bindings = [("a.#", "q1"), ("a.#.z", "q2"), ("#.z", "q3")]
    index = RouteIndex(bindings)
    assert index.match("a") == ("q1",)
    assert index.match("a.z") == ("q1", "q2", "q3")
    assert index.match("a.b.c.z") == ("q1", "q2", "q3")
    assert index.match("z") == ("q3",)


def test_route_index_adversarial_hash_patterns_fast():
    # The worst cases for the old recursive matcher stay linear here.
    bindings = [(".".join(["#"] * 12 + ["end"]), "q")]
    index = RouteIndex(bindings)
    long_topic = ".".join(["x"] * 80)
    assert index.match(long_topic) == ()
    assert index.match(long_topic + ".end") == ("q",)


# -- broker-side invalidation --------------------------------------------------

def make_bus(sim, network):
    bus = MessageBus(sim, network)
    broker = bus.add_broker("main", site="a")
    return bus, broker


def _publish(bus, topic, results, key):
    msg = Message(Performative.INFORM, "src", topic)
    results[key] = yield from bus.publish("main", "b", topic, msg)


def test_bind_after_traffic_invalidates_index(sim, network):
    bus, broker = make_bus(sim, network)
    broker.declare_queue("q1")
    broker.bind("q1", "lab.*.xrd")
    results = {}

    def scenario(sim, bus):
        yield from _publish(bus, "lab.a.xrd", results, "before")
        # Index is now compiled; a late subscriber must still be seen.
        broker.declare_queue("q2")
        broker.bind("q2", "lab.#")
        yield from _publish(bus, "lab.a.xrd", results, "after")

    sim.process(scenario(sim, bus))
    sim.run()
    assert results["before"] == 1
    assert results["after"] == 2
    assert len(broker.queues["q2"]) == 1


def test_kill_revive_invalidates_and_restores_routing(sim, network):
    bus, broker = make_bus(sim, network)
    broker.declare_queue("q")
    broker.bind("q", "t.#")
    results = {}

    def scenario(sim, bus):
        yield from _publish(bus, "t.x", results, "first")
        broker.kill()
        broker.revive()
        # Binds applied while the index was already compiled pre-kill.
        broker.declare_queue("q2")
        broker.bind("q2", "t.x")
        yield from _publish(bus, "t.x", results, "second")

    sim.process(scenario(sim, bus))
    sim.run()
    assert results["first"] == 1
    assert results["second"] == 2


def test_overlapping_patterns_deliver_exactly_once(sim, network):
    bus, broker = make_bus(sim, network)
    queue = broker.declare_queue("q")
    # Three patterns, all matching the same topic, all to one queue.
    for pattern in ("lab.#", "lab.*.xrd", "lab.a.xrd"):
        broker.bind("q", pattern)
    results = {}

    def scenario(sim, bus):
        yield from _publish(bus, "lab.a.xrd", results, "n")

    sim.process(scenario(sim, bus))
    sim.run()
    assert results["n"] == 1
    assert len(queue) == 1
    assert broker.stats["routed"] == 1


def test_index_hit_and_rebuild_counters(sim, network):
    bus, broker = make_bus(sim, network)
    broker.declare_queue("q")
    broker.bind("q", "t")
    hits = broker.metrics.counter("bus.route_index_hits",
                                  broker="main", site="a")
    rebuilds = broker.metrics.counter("bus.route_index_rebuilds",
                                      broker="main", site="a")
    results = {}

    def scenario(sim, bus):
        yield from _publish(bus, "t", results, "a")   # compile
        yield from _publish(bus, "t", results, "b")   # hit
        yield from _publish(bus, "t", results, "c")   # hit
        broker.bind("q", "t.extra")                   # invalidate
        yield from _publish(bus, "t", results, "d")   # recompile

    sim.process(scenario(sim, bus))
    sim.run()
    assert rebuilds.value == 2
    assert hits.value == 2
