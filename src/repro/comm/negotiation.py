"""Capability negotiation between heterogeneous agents.

When two parties (an orchestration agent and an instrument, say) first
meet, they agree on a protocol dialect, version, and QoS parameters.  The
pure intersection logic lives in :func:`intersect_offers`; the
message-driven multi-round protocol in :class:`Negotiator` runs over RPC
and is what E5 measures ("capability negotiation in geographically
distributed research facilities", M12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.comm.rpc import RpcClient, RpcServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class NegotiationFailed(Exception):
    """No mutually acceptable protocol configuration exists."""


@dataclass
class CapabilityOffer:
    """One party's supported protocols and parameter ranges.

    Attributes
    ----------
    protocols:
        Mapping of protocol name -> supported versions (descending
        preference), e.g. ``{"grpc": [3, 2], "amqp": [1]}``.
    max_message_bytes:
        Largest message the party can handle.
    qos:
        Supported delivery guarantees, subset of
        ``{"at-most-once", "at-least-once", "exactly-once"}``.
    encodings:
        Supported payload encodings in descending preference.
    preferences:
        Optional per-protocol preference weights (higher = preferred).
    """

    protocols: dict[str, list[int]]
    max_message_bytes: float = 1e9
    qos: tuple[str, ...] = ("at-least-once", "at-most-once")
    encodings: tuple[str, ...] = ("binary", "json")
    preferences: dict[str, float] = field(default_factory=dict)

    def preference(self, protocol: str) -> float:
        return self.preferences.get(protocol, 1.0)


#: Delivery guarantees ordered weakest to strongest.
_QOS_ORDER = ("at-most-once", "at-least-once", "exactly-once")


@dataclass(frozen=True)
class Agreement:
    """The negotiated contract both parties will speak."""

    protocol: str
    version: int
    qos: str
    encoding: str
    max_message_bytes: float
    rounds: int = 1


def intersect_offers(a: CapabilityOffer, b: CapabilityOffer) -> Agreement:
    """Deterministically choose the best mutually supported configuration.

    Protocol choice maximizes the *product* of both parties' preference
    weights (ties broken lexicographically); version is the highest common
    one; QoS is the strongest guarantee both support; encoding is the
    first of ``a``'s preferences that ``b`` also supports.

    Raises :class:`NegotiationFailed` when any dimension has an empty
    intersection.
    """
    common = sorted(set(a.protocols) & set(b.protocols))
    if not common:
        raise NegotiationFailed(
            f"no common protocol: {sorted(a.protocols)} vs {sorted(b.protocols)}")
    scored = sorted(common,
                    key=lambda p: (-a.preference(p) * b.preference(p), p))
    for proto in scored:
        versions = set(a.protocols[proto]) & set(b.protocols[proto])
        if versions:
            protocol, version = proto, max(versions)
            break
    else:
        raise NegotiationFailed("no common protocol version")

    qos_common = [q for q in _QOS_ORDER if q in a.qos and q in b.qos]
    if not qos_common:
        raise NegotiationFailed(f"no common QoS: {a.qos} vs {b.qos}")
    enc_common = [e for e in a.encodings if e in b.encodings]
    if not enc_common:
        raise NegotiationFailed(
            f"no common encoding: {a.encodings} vs {b.encodings}")
    return Agreement(
        protocol=protocol,
        version=version,
        qos=qos_common[-1],
        encoding=enc_common[0],
        max_message_bytes=min(a.max_message_bytes, b.max_message_bytes),
    )


class Negotiator:
    """Runs the negotiation protocol over RPC against a remote party.

    The remote party exposes a ``negotiate`` RPC method installed by
    :meth:`serve`.  The exchange is propose -> (accept | counter) with at
    most ``max_rounds`` rounds; a counter carries the responder's full
    offer so the initiator can compute the intersection locally.
    """

    def __init__(self, sim: "Simulator", offer: CapabilityOffer) -> None:
        self.sim = sim
        self.offer = offer
        self.agreements: list[Agreement] = []

    def serve(self, server: RpcServer) -> None:
        """Install this party's negotiation endpoint on an RPC server."""
        def handle(payload: dict[str, Any]) -> dict[str, Any]:
            proposed: Agreement = payload["agreement"]
            try:
                # Accept iff the proposal is something we could have
                # produced ourselves against the initiator's offer.
                check = intersect_offers(self.offer, payload["offer"])
            except NegotiationFailed as exc:
                return {"status": "reject", "reason": str(exc)}
            if (proposed.protocol == check.protocol
                    and proposed.version == check.version
                    and proposed.qos == check.qos):
                self.agreements.append(proposed)
                return {"status": "accept"}
            return {"status": "counter", "offer": self.offer}
        server.register("negotiate", handle)

    #: Proposal rounds before :meth:`negotiate` gives up.
    MAX_ROUNDS = 3

    def negotiate(self, client: RpcClient, server: RpcServer):
        """Generator: negotiate with the party behind ``server``.

        The first round proposes our own offer verbatim and relies on a
        counter to learn theirs.  Returns the :class:`Agreement`; raises
        :class:`NegotiationFailed`.
        """
        hint = self.offer
        rounds = 0
        while rounds < self.MAX_ROUNDS:
            rounds += 1
            proposal = intersect_offers(self.offer, hint)
            reply = yield from client.call(
                server, "negotiate",
                {"agreement": proposal, "offer": self.offer})
            if reply["status"] == "accept":
                agreement = Agreement(
                    protocol=proposal.protocol, version=proposal.version,
                    qos=proposal.qos, encoding=proposal.encoding,
                    max_message_bytes=proposal.max_message_bytes,
                    rounds=rounds)
                self.agreements.append(agreement)
                return agreement
            if reply["status"] == "counter":
                hint = reply["offer"]
                continue
            raise NegotiationFailed(reply.get("reason", "rejected"))
        raise NegotiationFailed(
            f"no agreement after {self.MAX_ROUNDS} rounds")
