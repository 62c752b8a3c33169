"""Messages: FIPA-flavoured performatives in typed envelopes.

A :class:`Message` is one bus publish, RPC request or data-mesh
request; an :class:`Envelope` wraps it with routing and security
metadata as it crosses the middleware.  The performative vocabulary
follows FIPA-ACL, which both the Academy-style middleware and ROS2-style
ecosystems cited in §3.4 approximate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.comm.serialization import estimate_size
from repro.sim.ids import next_id


class Performative(enum.Enum):
    """Speech-act types for inter-agent messages (FIPA-ACL subset)."""

    REQUEST = "request"
    INFORM = "inform"
    PROPOSE = "propose"
    ACCEPT = "accept"
    REFUSE = "refuse"
    FAILURE = "failure"
    QUERY = "query"
    SUBSCRIBE = "subscribe"
    CANCEL = "cancel"
    HEARTBEAT = "heartbeat"


@dataclass
class Message:
    """A single unit of agent communication.

    Attributes
    ----------
    performative:
        The speech act (:class:`Performative`).
    sender / recipient:
        Logical agent names; ``recipient`` may be a topic for pub/sub.
    payload:
        Arbitrary structured content.
    conversation_id:
        Correlates multi-turn exchanges (negotiation, RPC).
    reply_to:
        Where responses should be directed.
    headers:
        Middleware metadata (auth token, schema id, trace context, ...).
    """

    performative: Performative
    sender: str
    recipient: str
    payload: Any = None
    conversation_id: str = ""
    reply_to: str = ""
    headers: dict[str, Any] = field(default_factory=dict)
    # Ambient world allocation (repro.sim.ids): messages created inside a
    # simulation draw from that world's "message" stream, so same-seed
    # federations stamp identical msg_ids (and conversation ids).
    msg_id: int = field(default_factory=lambda: next_id("message"))

    def size_bytes(self) -> float:
        """Estimated wire size of the message (payload + fixed overhead)."""
        return 256.0 + estimate_size(self.payload) + estimate_size(self.headers)


@dataclass
class Envelope:
    """Routing wrapper the middleware attaches to a message in flight.

    Attributes
    ----------
    message:
        The wrapped :class:`Message`.
    src_site / dst_site:
        Physical sites between which the envelope travels.
    token:
        Security token string (verified by the zero-trust gateway on every
        hop — "continuous authentication", milestone M11).
    attempt:
        Delivery attempt number (for at-least-once redelivery).
    enqueued_at:
        Simulation time the envelope entered the middleware.
    """

    message: Message
    src_site: str
    dst_site: str
    token: Optional[str] = None
    attempt: int = 1
    enqueued_at: float = 0.0

    def size_bytes(self) -> float:
        return self.message.size_bytes() + 128.0
