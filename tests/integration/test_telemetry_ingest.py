"""Tests for the bus -> mesh telemetry pipeline (dimensions 2 + 4)."""

import numpy as np
import pytest

from repro.comm import Message, MessageBus, Performative
from repro.data import (AnomalyDetector, FederatedDataMesh, QualityAssessor,
                        StreamProcessor)
from repro.data.ingest import TelemetryPublisher, wire_site_telemetry
from repro.labsci import Sample


@pytest.fixture
def pipeline(sim, testbed_network, rngs, qd_landscape):
    bus = MessageBus(sim, testbed_network)
    bus.add_broker("hub", site="site-0")
    mesh = FederatedDataMesh(sim, testbed_network)
    node = mesh.make_node("site-1", institution="inst-1")
    stream = StreamProcessor(
        sim, QualityAssessor(detector=AnomalyDetector(min_history=8)),
        sink=node, keep_every=1, per_record_s=0.001)
    stream.start()
    publisher, ingestor = wire_site_telemetry(
        sim, bus, "hub", "site-1", "inst-1", stream)
    ingestor.start()
    from repro.instruments import PLSpectrometer
    spec = PLSpectrometer(sim, "spec.site-1", "site-1", rngs,
                          scan_time_s=5.0)
    return bus, node, stream, publisher, ingestor, spec


def measure_and_publish(sim, spec, publisher, qd_landscape, n, rng):
    def proc():
        for _ in range(n):
            sample = Sample.synthesize(qd_landscape.space.sample(rng),
                                       qd_landscape, site="site-1")
            m = yield from spec.measure(sample)
            yield from publisher.publish(m)
    p = sim.process(proc())
    return p


def test_measurements_flow_to_mesh(sim, pipeline, qd_landscape):
    bus, node, stream, publisher, ingestor, spec = pipeline
    rng = np.random.default_rng(0)
    p = measure_and_publish(sim, spec, publisher, qd_landscape, 10, rng)
    sim.run(until=p)
    sim.run(until=sim.now + 10.0)  # drain consumer + index
    assert publisher.stats["published"] == 10
    assert ingestor.stats["consumed"] == 10
    assert len(node) == 10
    record = node.local_records()[0]
    assert record.institution == "inst-1"
    assert "plqy" in record.values


def test_queue_acked_after_ingest(sim, pipeline, qd_landscape):
    bus, node, stream, publisher, ingestor, spec = pipeline
    rng = np.random.default_rng(1)
    p = measure_and_publish(sim, spec, publisher, qd_landscape, 5, rng)
    sim.run(until=p)
    sim.run(until=sim.now + 10.0)
    queue = bus.brokers["hub"].queues["telemetry.site-1"]
    assert queue.unacked_count == 0
    assert queue.stats["acked"] == 5


def test_malformed_telemetry_dead_letters(sim, pipeline):
    bus, node, stream, publisher, ingestor, spec = pipeline

    def rogue():
        msg = Message(Performative.INFORM, "rogue", "telemetry.site-1.junk",
                      payload={"not": "a measurement"})
        yield from bus.publish("hub", "site-2", "telemetry.site-1.junk", msg)

    sim.process(rogue())
    sim.run(until=20.0)
    queue = bus.brokers["hub"].queues["telemetry.site-1"]
    assert ingestor.stats["malformed"] == 1
    assert len(queue.dead_letters) == 1
    assert len(node) == 0


def test_broker_outage_backoff_and_recovery(sim, pipeline, qd_landscape):
    bus, node, stream, publisher, ingestor, spec = pipeline
    broker = bus.brokers["hub"]
    rng = np.random.default_rng(2)

    def script():
        # Publish two, kill the broker, fail a publish, revive, publish more.
        for _ in range(2):
            sample = Sample.synthesize(qd_landscape.space.sample(rng),
                                       qd_landscape, site="site-1")
            m = yield from spec.measure(sample)
            yield from publisher.publish(m)
        broker.kill()
        sample = Sample.synthesize(qd_landscape.space.sample(rng),
                                   qd_landscape, site="site-1")
        m = yield from spec.measure(sample)
        n = yield from publisher.publish(m)
        assert n == 0  # swallowed, counted as failed
        yield sim.timeout(30.0)
        broker.revive()
        sample = Sample.synthesize(qd_landscape.space.sample(rng),
                                   qd_landscape, site="site-1")
        m = yield from spec.measure(sample)
        yield from publisher.publish(m)

    p = sim.process(script())
    sim.run(until=p)
    sim.run(until=sim.now + 30.0)
    assert publisher.stats["failed"] == 1
    # At-least-once across the outage: everything that ever reached the
    # broker is eventually consumed (the outage-time publish never did).
    assert ingestor.stats["consumed"] == 3
    assert len(node) == 3
    queue = bus.brokers["hub"].queues["telemetry.site-1"]
    assert queue.unacked_count == 0  # nothing stuck in unacked limbo


def test_ingestor_double_start_rejected(sim, pipeline):
    *_, ingestor, _spec = pipeline
    with pytest.raises(RuntimeError):
        ingestor.start()


def test_topic_binding_isolates_sites(sim, pipeline, qd_landscape, rngs):
    """site-2's telemetry does not leak into site-1's queue."""
    bus, node, stream, publisher, ingestor, spec = pipeline
    from repro.instruments import PLSpectrometer
    spec2 = PLSpectrometer(sim, "spec.site-2", "site-2", rngs,
                           scan_time_s=5.0)
    pub2 = TelemetryPublisher(sim, bus, "hub", "site-2")
    rng = np.random.default_rng(3)

    def proc():
        sample = Sample.synthesize(qd_landscape.space.sample(rng),
                                   qd_landscape, site="site-2")
        m = yield from spec2.measure(sample)
        routed = yield from pub2.publish(m)
        assert routed == 0  # nothing bound to telemetry.site-2.#

    p = sim.process(proc())
    sim.run(until=p)
    sim.run(until=sim.now + 5.0)
    assert len(node) == 0
