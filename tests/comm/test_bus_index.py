"""Tests for ``Broker.route`` against a regex linear-scan oracle, and for
routing after a late bind, a kill/revive and overlapping patterns.

"Route index" in the test names is the broker's binding table, which
``Broker.route`` scans in binding order with ``topic_matches``.
"""

import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Message, MessageBus, Performative
from repro.comm.bus import Broker, BrokerDown, topic_matches
from repro.comm.message import Envelope
from repro.sim import Simulator


# -- Broker.route vs a regex linear-scan oracle --------------------------------

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


class _Recorder:
    """A broker whose queues log every push, so a test sees which queues
    ``Broker.route`` pushed a topic to, and in what order."""

    def __init__(self, bindings=()):
        self.broker = Broker(Simulator(), "main", site="a")
        self.pushed = []
        for pattern, qname in bindings:
            self.bind(qname, pattern)

    def bind(self, qname, pattern):
        if qname not in self.broker.queues:
            queue = self.broker.declare_queue(qname)
            push = queue.push

            def logged(envelope, qname=qname):
                self.pushed.append(qname)
                push(envelope)
            queue.push = logged
        self.broker.bind(qname, pattern)

    def route(self, topic):
        self.pushed.clear()
        envelope = Envelope(Message(Performative.INFORM, "src", topic),
                            src_site="b", dst_site="a")
        matched = self.broker.route(topic, envelope)
        assert matched == len(self.pushed)
        return tuple(self.pushed)


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


def _routing_tables(seed: int):
    """Seeded binding table + topic stream of a busy federation broker.

    Every site/instrument pair publishes telemetry, and consumers
    subscribe with a realistic mix of exact topics, ``*`` holes, and
    ``#`` tails.
    """
    rng = np.random.default_rng(seed)
    sites = [f"site-{i}" for i in range(12)]
    kinds = ["xrd", "microscope", "furnace", "flow", "spectrometer"]
    streams = ["scan", "status", "calib", "alert"]

    bindings: list[tuple[str, str]] = []
    n_queues = 48
    for q in range(n_queues):
        qname = f"q-{q}"
        for _ in range(int(rng.integers(8, 22))):
            shape = rng.random()
            site = sites[int(rng.integers(len(sites)))]
            kind = kinds[int(rng.integers(len(kinds)))]
            stream = streams[int(rng.integers(len(streams)))]
            if shape < 0.35:
                pattern = f"lab.{site}.{kind}.{stream}"
            elif shape < 0.6:
                pattern = f"lab.*.{kind}.{stream}"
            elif shape < 0.8:
                pattern = f"lab.{site}.#"
            else:
                pattern = f"lab.#.{stream}"
            bindings.append((pattern, qname))

    topics = []
    for _ in range(1500):
        site = sites[int(rng.integers(len(sites)))]
        kind = kinds[int(rng.integers(len(kinds)))]
        stream = streams[int(rng.integers(len(streams)))]
        depth = rng.random()
        if depth < 0.7:
            topics.append(f"lab.{site}.{kind}.{stream}")
        elif depth < 0.9:
            topics.append(f"lab.{site}.{kind}.{stream}.chunk-3")
        else:
            topics.append(f"ops.{site}.{stream}")
    return bindings, topics


def test_federation_broker_table_is_pinned():
    """Seed 0 draws the table the routing benchmark always used: 697
    bindings, 1,500 topics and 39,236 deliveries in all."""
    bindings, topics = _routing_tables(0)
    recorder = _Recorder(bindings)
    assert (len(bindings), len(topics)) == (697, 1500)
    assert sum(len(recorder.route(topic)) for topic in topics) == 39_236
    assert recorder.broker.stats["routed"] == 39_236


@pytest.mark.parametrize("tables", [
    *(pytest.param(_random_tables(seed), id=str(seed)) for seed in range(4)),
    pytest.param(_routing_tables(0), id="federation-broker"),
])
def test_route_index_equals_oracle_on_random_tables(tables):
    bindings, topics = tables
    recorder = _Recorder(bindings)
    for topic in topics:
        assert recorder.route(topic) == _oracle_match(bindings, topic), topic


_pattern_segments = st.sampled_from(("a", "b", "", "*", "#", "#"))
_topic_segments = st.sampled_from(("a", "b", "", "*"))
_patterns = st.lists(_pattern_segments, min_size=1, max_size=6).map(".".join)
_topics = st.lists(_topic_segments, min_size=1, max_size=6).map(".".join)
_queues = st.sampled_from(("q0", "q1", "q2", "q3"))


@given(bindings=st.lists(st.tuples(_patterns, _queues), max_size=12),
       ops=st.lists(st.one_of(
           st.tuples(st.just("route"), _topics),
           st.tuples(st.just("bind"), _patterns, _queues),
           st.just(("kill",)), st.just(("revive",))), max_size=24))
@settings(max_examples=200, deadline=None)
def test_property_route_index_matches_regex_oracle(bindings, ops):
    """Generated bindings with several ``#``, ``*`` and empty segments,
    then routes interleaved with late binds and kill/revive:
    ``topic_matches`` agrees with the oracle pattern by pattern, and a
    live broker pushes to the oracle's queues in the oracle's order."""
    recorder = _Recorder(bindings)
    bound = list(bindings)
    for op in ops:
        if op[0] == "bind":
            _, pattern, qname = op
            recorder.bind(qname, pattern)
            bound.append((pattern, qname))
        elif op[0] == "kill":
            recorder.broker.kill()
        elif op[0] == "revive":
            recorder.broker.revive()
        else:
            topic = op[1]
            for pattern, _ in bound:
                assert topic_matches(pattern, topic) == bool(
                    _oracle_regex(pattern).fullmatch("." + topic)), \
                    (pattern, topic)
            if recorder.broker.alive:
                assert recorder.route(topic) == _oracle_match(bound, topic)
            else:
                with pytest.raises(BrokerDown):
                    recorder.route(topic)
                assert recorder.pushed == []


def test_route_index_empty_bindings():
    assert _Recorder().route("a.b.c") == ()


def test_route_index_dedups_in_first_binding_order():
    bindings = [("lab.#", "late"), ("lab.*.xrd", "early"),
                ("lab.a.#", "late"), ("#", "early")]
    # 'late' is bound first (binding 0), 'early' second (binding 1), so
    # delivery follows that order whatever the names suggest.
    assert _Recorder(bindings).route("lab.a.xrd") == ("late", "early")


def test_route_index_hash_tail_and_middle():
    recorder = _Recorder([("a.#", "q1"), ("a.#.z", "q2"), ("#.z", "q3")])
    assert recorder.route("a") == ("q1",)
    assert recorder.route("a.z") == ("q1", "q2", "q3")
    assert recorder.route("a.b.c.z") == ("q1", "q2", "q3")
    assert recorder.route("z") == ("q3",)


def test_route_index_adversarial_hash_patterns_fast():
    # The worst cases for the old recursive matcher stay linear here.
    recorder = _Recorder([(".".join(["#"] * 12 + ["end"]), "q")])
    long_topic = ".".join(["x"] * 80)
    assert recorder.route(long_topic) == ()
    assert recorder.route(long_topic + ".end") == ("q",)


# -- routing through the bus -----------------------------------------------------

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
        # A subscriber bound after traffic must still be seen.
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
        # A bind after the revive routes alongside the earlier ones.
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
