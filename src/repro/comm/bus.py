"""AMQP-style message-oriented middleware.

Brokers live at sites; publishers send envelopes to a broker over the
simulated WAN; the broker fans messages out to queues whose *bindings*
match the topic (AMQP topic-exchange semantics: ``*`` matches one
dot-separated segment, ``#`` matches any number).  A route scans the
broker's bindings in binding order with :func:`topic_matches`, the same
matcher contract rule C001 uses as its oracle.  Consumers pull from
queues with explicit ack/nack and at-least-once redelivery — the
"reliable message delivery" the paper's §3.4 research priorities call for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.comm.message import Envelope, Message
from repro.obs.metrics import MetricsRegistry
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator


class BrokerDown(Exception):
    """The broker targeted by a publish/consume is offline."""


def topic_matches(pattern: str, topic: str) -> bool:
    """AMQP topic matching: ``*`` = one segment, ``#`` = zero or more.

    Implemented as an iterative NFA simulation over pattern positions —
    O(len(pattern) * len(topic)) worst case, where the old backtracking
    recursion blew up exponentially on patterns with several ``#``
    segments (``#.#.#...`` against a long non-matching topic).

    >>> topic_matches("lab.*.xrd", "lab.ornl.xrd")
    True
    >>> topic_matches("lab.#", "lab.ornl.xrd.scan")
    True
    >>> topic_matches("lab.*", "lab.ornl.xrd")
    False
    """
    pat = pattern.split(".")
    n_pat = len(pat)

    def close(states: set[int]) -> set[int]:
        # Epsilon closure: a '#' consumes zero segments by advancing past.
        frontier = list(states)
        while frontier:
            pi = frontier.pop()
            if pi < n_pat and pat[pi] == "#" and pi + 1 not in states:
                states.add(pi + 1)
                frontier.append(pi + 1)
        return states

    states = close({0})
    for seg in topic.split("."):
        nxt: set[int] = set()
        for pi in states:
            if pi >= n_pat:
                continue
            p = pat[pi]
            if p == "#":
                nxt.add(pi)          # '#' consumes the segment and stays
            elif p == "*" or p == seg:
                nxt.add(pi + 1)
        if not nxt:
            return False
        states = close(nxt)
    return n_pat in states


class Queue:
    """A named broker-side queue with ack/nack redelivery semantics.

    A nacked message is requeued at once, the classic AMQP behaviour,
    until it has been delivered ``max_attempts`` times; the nack after
    that dead-letters it.
    """

    def __init__(self, sim: "Simulator", name: str,
                 max_attempts: int = 5,
                 metrics: Optional[MetricsRegistry] = None,
                 site: str = "") -> None:
        if max_attempts < 1:
            raise ValueError("need max_attempts >= 1")
        self.sim = sim
        self.name = name
        self.max_attempts = int(max_attempts)
        self._store: Store = Store(sim)
        self._unacked: dict[int, Envelope] = {}
        self.dead_letters: list[Envelope] = []
        metrics = metrics or MetricsRegistry()
        labels = {"queue": name}
        if site:
            labels["site"] = site
        self.stats = metrics.stats(
            "bus.queue",
            {"delivered": 0, "acked": 0, "nacked": 0, "dead": 0}, **labels)
        self._depth = metrics.gauge("bus.queue.depth", **labels)

    def __len__(self) -> int:
        return len(self._store)

    def push(self, envelope: Envelope) -> None:
        self._store.put(envelope)
        self._depth.set(len(self._store))

    def get(self):
        """Event yielding the next envelope (must later be acked/nacked)."""
        ev = self._store.get()
        ev.callbacks.append(self._on_delivery)
        return ev

    def _on_delivery(self, event) -> None:
        if event._ok:
            env: Envelope = event.value
            self._unacked[env.message.msg_id] = env
            self.stats["delivered"] += 1
            self._depth.set(len(self._store))

    def ack(self, envelope: Envelope) -> None:
        """Confirm processing; the message will not be redelivered."""
        self._unacked.pop(envelope.message.msg_id, None)
        self.stats["acked"] += 1

    def nack(self, envelope: Envelope) -> None:
        """Reject; requeue for redelivery (or dead-letter after too many)."""
        self._unacked.pop(envelope.message.msg_id, None)
        self.stats["nacked"] += 1
        if envelope.attempt >= self.max_attempts:
            self.dead_letters.append(envelope)
            self.stats["dead"] += 1
            return
        envelope.attempt += 1
        self.push(envelope)

    @property
    def unacked_count(self) -> int:
        return len(self._unacked)


class Broker:
    """A message broker hosted at one site."""

    def __init__(self, sim: "Simulator", name: str, site: str,
                 routing_delay_s: float = 0.0005,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.name = name
        self.site = site
        self.routing_delay_s = routing_delay_s
        self.alive = True
        self.metrics = metrics or MetricsRegistry()
        self.queues: dict[str, Queue] = {}
        self._bindings: list[tuple[str, str]] = []  # (pattern, queue name)
        self.stats = self.metrics.stats(
            "bus.broker", {"published": 0, "routed": 0, "unroutable": 0},
            broker=name, site=site)

    def declare_queue(self, name: str, max_attempts: int = 5) -> Queue:
        if name not in self.queues:
            self.queues[name] = Queue(self.sim, name, max_attempts,
                                      metrics=self.metrics, site=self.site)
        return self.queues[name]

    def bind(self, queue_name: str, pattern: str) -> None:
        if queue_name not in self.queues:
            raise KeyError(f"no queue {queue_name!r} on broker {self.name!r}")
        self._bindings.append((pattern, queue_name))

    def route(self, topic: str, envelope: Envelope) -> int:
        """Fan an envelope out to all queues bound to ``topic``.

        Scans the bindings in the order they were made and pushes to each
        queue once, the first time one of its patterns matches; overlapping
        patterns to one queue deliver a single copy.
        """
        if not self.alive:
            raise BrokerDown(self.name)
        self.stats["published"] += 1
        pushed: set[str] = set()
        for pattern, qname in self._bindings:
            if qname not in pushed and topic_matches(pattern, topic):
                pushed.add(qname)
                self.queues[qname].push(envelope)
        matched = len(pushed)
        if matched:
            self.stats["routed"] += matched
        else:
            self.stats["unroutable"] += 1
        return matched

    def kill(self) -> None:
        """Simulate broker crash (used by failover experiments)."""
        self.alive = False

    def revive(self) -> None:
        self.alive = True


class MessageBus:
    """Client-facing facade over one or more brokers.

    Parameters
    ----------
    sim, network:
        Kernel and transport.
    gateway:
        Optional zero-trust gateway; when present every publish/consume is
        verified (see :mod:`repro.security.zerotrust`).
    metrics:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry` every
        broker and queue reports into.
    """

    def __init__(self, sim: "Simulator", network: "Network",
                 gateway: Any = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.network = network
        self.gateway = gateway
        self.metrics = metrics or MetricsRegistry()
        self.brokers: dict[str, Broker] = {}

    def add_broker(self, name: str, site: str, **kw: Any) -> Broker:
        if name in self.brokers:
            raise ValueError(f"duplicate broker {name!r}")
        kw.setdefault("metrics", self.metrics)
        broker = Broker(self.sim, name, site, **kw)
        self.brokers[name] = broker
        return broker

    def publish(self, broker_name: str, src_site: str, topic: str,
                message: Message, token: Optional[str] = None):
        """Generator: publish ``message`` to ``topic`` via ``broker_name``.

        Returns the number of queues the message was routed to.  Raises
        :class:`BrokerDown`, network errors, or security errors.
        """
        broker = self.brokers[broker_name]
        env = Envelope(message=message, src_site=src_site,
                       dst_site=broker.site, token=token,
                       enqueued_at=self.sim.now)
        yield self.network.send(src_site, broker.site, env.size_bytes())
        if not broker.alive:
            raise BrokerDown(broker_name)
        if self.gateway is not None:
            delay = self.gateway.verify(env, action="publish")
            if delay > 0:
                yield self.sim.timeout(delay)
        yield self.sim.timeout(broker.routing_delay_s)
        return broker.route(topic, env)

    def consume(self, broker_name: str, queue_name: str,
                consumer_site: str, token: Optional[str] = None):
        """Generator: pull the next envelope from a queue.

        Models the delivery leg from the broker's site to the consumer's
        site.  The caller must :meth:`Queue.ack`/:meth:`Queue.nack` the
        returned envelope.
        """
        broker = self.brokers[broker_name]
        if not broker.alive:
            raise BrokerDown(broker_name)
        queue = broker.queues[queue_name]
        env: Envelope = yield queue.get()
        if not broker.alive:
            # The broker died between delivery and handoff: requeue so the
            # message is redelivered after recovery (at-least-once).
            queue.nack(env)
            raise BrokerDown(broker_name)
        if self.gateway is not None:
            delay = self.gateway.verify(env, action="consume")
            if delay > 0:
                yield self.sim.timeout(delay)
        yield self.network.send(broker.site, consumer_site, env.size_bytes())
        return env
