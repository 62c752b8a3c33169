"""Tests for the AMQP-style message bus."""

import pytest

from repro.comm import Message, MessageBus, Performative
from repro.comm.bus import BrokerDown, topic_matches


# -- topic matching ------------------------------------------------------------

@pytest.mark.parametrize("pattern,topic,expected", [
    ("a.b.c", "a.b.c", True),
    ("a.b.c", "a.b.d", False),
    ("a.*.c", "a.b.c", True),
    ("a.*.c", "a.b.b.c", False),
    ("a.#", "a", True),
    ("a.#", "a.b.c.d", True),
    ("#", "anything.at.all", True),
    ("#.end", "a.b.end", True),
    ("#.end", "end", True),
    ("a.*", "a", False),
    ("*.b", "a.b", True),
    ("a.#.z", "a.z", True),
    ("a.#.z", "a.b.c.z", True),
    ("a.#.z", "a.b.c", False),
    # '#' in the middle, repeatedly and adjacent to wildcards.
    ("a.#.b.#.c", "a.x.b.y.z.c", True),
    ("a.#.b.#.c", "a.b.c", True),
    ("a.#.b.#.c", "a.c", False),
    ("#.#", "a", True),
    ("a.#.*", "a", False),
    ("a.#.*", "a.b", True),
    # Empty segments are literal segments, not holes in the grammar.
    ("a..b", "a..b", True),
    ("a..b", "a.b", False),
    ("a.*", "a.", True),
    ("", "", True),
    ("", "a", False),
    # Pattern longer than the topic can never match without '#'.
    ("a.b.c.d", "a.b", False),
    ("*.*.*", "a.b", False),
    ("*.*", "a.b.c", False),
])
def test_topic_matches(pattern, topic, expected):
    assert topic_matches(pattern, topic) is expected


def test_topic_matches_adversarial_many_hashes():
    # Regression: the recursive matcher backtracked over every way to
    # split the topic across the '#'s — combinatorial in the number of
    # '#' segments.  Fifteen of them against a 60-segment non-matching
    # topic effectively hung; the NFA walk is linear and returns at once.
    pattern = ".".join(["#"] * 15 + ["zzz"])
    topic = ".".join(["seg"] * 60)
    assert topic_matches(pattern, topic) is False
    assert topic_matches(pattern, topic + ".zzz") is True


def test_topic_matches_adversarial_hash_star_alternation():
    # '#.*' repeated: each '*' needs exactly one segment, each '#' zero
    # or more, so ten pairs need >= 10 segments — another worst case for
    # the old backtracker.
    pattern = ".".join(["#", "*"] * 10)
    assert topic_matches(pattern, ".".join(["x"] * 9)) is False
    assert topic_matches(pattern, ".".join(["x"] * 10)) is True
    assert topic_matches(pattern, ".".join(["x"] * 50)) is True


def test_topic_matches_adversarial_hash_sandwich():
    pattern = "a.#.b.#.b.#.b.#.c"
    assert topic_matches(pattern, "a." + "b." * 40 + "c") is True
    assert topic_matches(pattern, "a." + "b." * 40 + "d") is False


# -- pub/sub flow ------------------------------------------------------------------

def make_bus(sim, network):
    bus = MessageBus(sim, network)
    broker = bus.add_broker("main", site="a")
    return bus, broker


def test_publish_routes_to_bound_queue(sim, network):
    bus, broker = make_bus(sim, network)
    broker.declare_queue("xrd-data")
    broker.bind("xrd-data", "lab.*.xrd")
    routed = {}

    def publisher(sim, bus):
        msg = Message(Performative.INFORM, "xrd-1", "lab.a.xrd",
                      payload={"scan": 1})
        routed["n"] = yield from bus.publish("main", "b", "lab.a.xrd", msg)

    sim.process(publisher(sim, bus))
    sim.run()
    assert routed["n"] == 1
    assert len(broker.queues["xrd-data"]) == 1
    # The depth gauge (read by dashboards and the C002 contract check)
    # tracks the undelivered backlog.
    assert broker.metrics.gauge("bus.queue.depth", queue="xrd-data",
                                site="a").value == 1


def test_fanout_to_multiple_queues(sim, network):
    bus, broker = make_bus(sim, network)
    for q, pattern in [("q1", "lab.#"), ("q2", "lab.a.*"), ("q3", "other.#")]:
        broker.declare_queue(q)
        broker.bind(q, pattern)

    def publisher(sim, bus):
        msg = Message(Performative.INFORM, "s", "t")
        n = yield from bus.publish("main", "a", "lab.a.xrd", msg)
        assert n == 2  # q1 and q2, not q3

    sim.process(publisher(sim, bus))
    sim.run()
    assert broker.stats["routed"] == 2


def test_unroutable_message_counted(sim, network):
    bus, broker = make_bus(sim, network)

    def publisher(sim, bus):
        msg = Message(Performative.INFORM, "s", "t")
        n = yield from bus.publish("main", "a", "nowhere.topic", msg)
        assert n == 0

    sim.process(publisher(sim, bus))
    sim.run()
    assert broker.stats["unroutable"] == 1


def test_consume_delivers_and_ack(sim, network):
    bus, broker = make_bus(sim, network)
    queue = broker.declare_queue("q")
    broker.bind("q", "t.#")
    got = []

    def publisher(sim, bus):
        msg = Message(Performative.INFORM, "p", "t.x", payload="payload-1")
        yield from bus.publish("main", "b", "t.x", msg)

    def consumer(sim, bus):
        env = yield from bus.consume("main", "q", consumer_site="b")
        got.append(env.message.payload)
        queue.ack(env)

    sim.process(publisher(sim, bus))
    sim.process(consumer(sim, bus))
    sim.run()
    assert got == ["payload-1"]
    assert queue.unacked_count == 0
    assert queue.stats["acked"] == 1


def test_nack_redelivers_with_attempt_bump(sim, network):
    bus, broker = make_bus(sim, network)
    queue = broker.declare_queue("q")
    broker.bind("q", "t")
    attempts = []

    def publisher(sim, bus):
        msg = Message(Performative.INFORM, "p", "t")
        yield from bus.publish("main", "b", "t", msg)

    def consumer(sim, bus):
        env = yield from bus.consume("main", "q", consumer_site="b")
        attempts.append(env.attempt)
        queue.nack(env)  # simulated processing failure
        env2 = yield from bus.consume("main", "q", consumer_site="b")
        attempts.append(env2.attempt)
        queue.ack(env2)

    sim.process(publisher(sim, bus))
    sim.process(consumer(sim, bus))
    sim.run()
    assert attempts == [1, 2]


def test_nack_dead_letters_after_max_attempts(sim, network):
    bus, broker = make_bus(sim, network)
    queue = broker.declare_queue("q", max_attempts=2)
    broker.bind("q", "t")

    def publisher(sim, bus):
        yield from bus.publish("main", "b", "t",
                               Message(Performative.INFORM, "p", "t"))

    def consumer(sim, bus):
        for _ in range(2):
            env = yield from bus.consume("main", "q", consumer_site="b")
            queue.nack(env)

    sim.process(publisher(sim, bus))
    sim.process(consumer(sim, bus))
    sim.run()
    assert len(queue.dead_letters) == 1
    assert queue.stats["dead"] == 1
    assert len(queue) == 0


def test_queue_rejects_max_attempts_below_one(sim, network):
    _bus, broker = make_bus(sim, network)
    with pytest.raises(ValueError):
        broker.declare_queue("q", max_attempts=0)


def test_publish_to_dead_broker_raises(sim, network):
    bus, broker = make_bus(sim, network)
    broker.kill()

    def publisher(sim, bus):
        with pytest.raises(BrokerDown):
            yield from bus.publish("main", "b", "t",
                                   Message(Performative.INFORM, "p", "t"))

    sim.process(publisher(sim, bus))
    sim.run()


def test_broker_revive_restores_service(sim, network):
    bus, broker = make_bus(sim, network)
    broker.declare_queue("q")
    broker.bind("q", "t")
    broker.kill()
    broker.revive()

    def publisher(sim, bus):
        n = yield from bus.publish("main", "b", "t",
                                   Message(Performative.INFORM, "p", "t"))
        assert n == 1

    sim.process(publisher(sim, bus))
    sim.run()


def test_consumer_blocks_until_message_arrives(sim, network):
    bus, broker = make_bus(sim, network)
    queue = broker.declare_queue("q")
    broker.bind("q", "t")
    times = {}

    def consumer(sim, bus):
        env = yield from bus.consume("main", "q", consumer_site="b")
        times["got"] = sim.now
        queue.ack(env)

    def late_publisher(sim, bus):
        yield sim.timeout(5.0)
        yield from bus.publish("main", "b", "t",
                               Message(Performative.INFORM, "p", "t"))

    sim.process(consumer(sim, bus))
    sim.process(late_publisher(sim, bus))
    sim.run()
    assert times["got"] > 5.0


def test_duplicate_broker_rejected(sim, network):
    bus, _ = make_bus(sim, network)
    with pytest.raises(ValueError):
        bus.add_broker("main", site="b")


def test_bind_unknown_queue_rejected(sim, network):
    _, broker = make_bus(sim, network)
    with pytest.raises(KeyError):
        broker.bind("ghost", "t")


# -- secured publish -------------------------------------------------------------

def test_bus_publish_requires_valid_token(sim, testbed_network):
    from repro.security import (FederatedIdentityProvider, Identity,
                                PolicyEngine, SecurityError, TrustFabric,
                                ZeroTrustGateway)
    from repro.security.abac import allow_all_within_federation
    fabric = TrustFabric()
    idp = FederatedIdentityProvider(sim, "inst-0")
    idp.enroll(Identity.make("agent@inst-0", "inst-0", role="agent"))
    fabric.add_provider(idp)
    fabric.federate()
    gateway = ZeroTrustGateway(
        sim, fabric, PolicyEngine(allow_all_within_federation()),
        site_institution={"site-0": "inst-0"})
    bus = MessageBus(sim, testbed_network, gateway=gateway)
    broker = bus.add_broker("hub", site="site-0")
    broker.declare_queue("q")
    broker.bind("q", "t.#")
    token = idp.issue("agent@inst-0")
    outcomes = {}

    def proc():
        msg = Message(Performative.INFORM, "agent@inst-0", "t.x")
        n = yield from bus.publish("hub", "site-1", "t.x", msg, token=token)
        outcomes["with_token"] = n
        with pytest.raises(SecurityError):
            yield from bus.publish("hub", "site-1", "t.x",
                                   Message(Performative.INFORM, "spy", "t.x"))

    sim.process(proc())
    sim.run()
    assert outcomes["with_token"] == 1
    assert len(broker.queues["q"]) == 1  # only the authenticated message
    assert gateway.stats["rejected_authn"] == 1


# -- exhaustive small-alphabet equivalence for topic_matches -------------------

def _all_words(alphabet, max_len):
    words = []
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (s,) for w in frontier for s in alphabet]
        words.extend(frontier)
    return words


def test_topic_matches_equals_regex_reference_exhaustively():
    """Compare against a compiled-regex oracle over every pattern/topic
    up to 4 segments on the {a, b, *, #} alphabet (10 200 pairs).

    Each segment is a single character, so a topic maps faithfully to its
    concatenated characters and a pattern to a regex over them:
    ``a -> a``, ``b -> b``, ``* -> [ab]`` (exactly one segment),
    ``# -> [ab]*`` (zero or more segments).
    """
    import re

    seg_regex = {"a": "a", "b": "b", "*": "[ab]", "#": "[ab]*"}
    patterns = _all_words(("a", "b", "*", "#"), 4)
    topics = _all_words(("a", "b"), 4)
    for pat_segs in patterns:
        oracle = re.compile("".join(seg_regex[s] for s in pat_segs))
        pattern = ".".join(pat_segs)
        for top_segs in topics:
            expected = oracle.fullmatch("".join(top_segs)) is not None
            got = topic_matches(pattern, ".".join(top_segs))
            assert got == expected, (pattern, ".".join(top_segs))
