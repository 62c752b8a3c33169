"""Tests for capability negotiation."""

import pytest

from repro.comm import CapabilityOffer, Negotiator, RpcClient, RpcServer
from repro.comm.negotiation import NegotiationFailed, intersect_offers


def offer(**kw):
    defaults = dict(protocols={"grpc": [3, 2], "amqp": [1]})
    defaults.update(kw)
    return CapabilityOffer(**defaults)


# -- pure intersection ----------------------------------------------------------

def test_intersection_picks_common_protocol_highest_version():
    a = offer(protocols={"grpc": [3, 2], "amqp": [1]})
    b = offer(protocols={"grpc": [2, 1]})
    ag = intersect_offers(a, b)
    assert (ag.protocol, ag.version) == ("grpc", 2)


def test_intersection_respects_preferences():
    a = offer(protocols={"grpc": [1], "amqp": [1]},
              preferences={"amqp": 5.0})
    b = offer(protocols={"grpc": [1], "amqp": [1]},
              preferences={"amqp": 2.0})
    assert intersect_offers(a, b).protocol == "amqp"


def test_intersection_qos_strongest_common():
    a = offer(qos=("at-most-once", "at-least-once", "exactly-once"))
    b = offer(qos=("at-most-once", "at-least-once"))
    assert intersect_offers(a, b).qos == "at-least-once"


def test_intersection_encoding_initiator_preference():
    a = offer(encodings=("hdf5", "binary", "json"))
    b = offer(encodings=("json", "binary"))
    assert intersect_offers(a, b).encoding == "binary"


def test_intersection_max_message_is_min():
    a = offer(max_message_bytes=1e6)
    b = offer(max_message_bytes=1e9)
    assert intersect_offers(a, b).max_message_bytes == 1e6


def test_no_common_protocol_fails():
    with pytest.raises(NegotiationFailed, match="no common protocol"):
        intersect_offers(offer(protocols={"grpc": [1]}),
                         offer(protocols={"mqtt": [1]}))


def test_no_common_version_fails():
    with pytest.raises(NegotiationFailed):
        intersect_offers(offer(protocols={"grpc": [3]}),
                         offer(protocols={"grpc": [1]}))


def test_no_common_qos_fails():
    with pytest.raises(NegotiationFailed, match="QoS"):
        intersect_offers(offer(qos=("exactly-once",)),
                         offer(qos=("at-most-once",)))


def test_no_common_encoding_fails():
    with pytest.raises(NegotiationFailed, match="encoding"):
        intersect_offers(offer(encodings=("hdf5",)),
                         offer(encodings=("json",)))


def test_intersection_symmetric_in_protocol_choice():
    a = offer(protocols={"grpc": [2], "amqp": [1]}, preferences={"grpc": 2.0})
    b = offer(protocols={"grpc": [2], "amqp": [1]}, preferences={"amqp": 1.5})
    assert intersect_offers(a, b).protocol == intersect_offers(b, a).protocol


# -- over-RPC protocol ------------------------------------------------------------

def test_negotiate_without_hint_uses_counter_round(sim, network):
    server = RpcServer(sim, "inst", site="b")
    responder = Negotiator(sim, offer(protocols={"grpc": [1]}))
    responder.serve(server)
    initiator = Negotiator(sim, offer(protocols={"grpc": [3, 2, 1]}))
    client = RpcClient(sim, network, site="a")
    out = {}

    def proc():
        out["ag"] = yield from initiator.negotiate(client, server)

    sim.process(proc())
    sim.run()
    assert out["ag"].version == 1
    assert out["ag"].rounds == 2  # propose v3 -> counter -> propose v1


def test_negotiate_incompatible_fails(sim, network):
    server = RpcServer(sim, "inst", site="b")
    responder = Negotiator(sim, offer(protocols={"mqtt": [1]}))
    responder.serve(server)
    initiator = Negotiator(sim, offer(protocols={"grpc": [1]}))
    client = RpcClient(sim, network, site="a")

    def proc():
        with pytest.raises(NegotiationFailed):
            yield from initiator.negotiate(client, server)

    sim.process(proc())
    sim.run()


def test_agreement_recorded_on_both_sides(sim, network):
    server = RpcServer(sim, "inst", site="b")
    responder = Negotiator(sim, offer())
    responder.serve(server)
    initiator = Negotiator(sim, offer())
    client = RpcClient(sim, network, site="a")

    def proc():
        yield from initiator.negotiate(client, server)

    sim.process(proc())
    sim.run()
    assert len(initiator.agreements) == 1
    assert len(responder.agreements) == 1
    a, b = initiator.agreements[0], responder.agreements[0]
    assert (a.protocol, a.version, a.qos) == (b.protocol, b.version, b.qos)
