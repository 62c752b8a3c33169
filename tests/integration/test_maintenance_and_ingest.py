"""Tests: automated calibration maintenance (M4) + schema-negotiated
ingest + secured message bus."""

import pytest

from repro.comm import Message, MessageBus, Performative
from repro.data import DataRecord, FederatedDataMesh, FieldSpec, Schema
from repro.data.schema import SchemaError
from repro.instruments import (CalibrationModel, MaintenanceAgent,
                               PLSpectrometer)
from repro.labsci import Sample


# -- maintenance agent -----------------------------------------------------------

@pytest.fixture
def drifty_spec(sim, rngs):
    cal = CalibrationModel(rngs.stream("cal"), drift_per_hour=0.08,
                           procedure_time_s=300.0)
    return PLSpectrometer(sim, "spec-1", "s", rngs, scan_time_s=600.0,
                          calibration=cal)


def test_maintenance_requires_calibration_model(sim, rngs):
    agent = MaintenanceAgent(sim)
    spec = PLSpectrometer(sim, "raw", "s", rngs)  # no calibration model
    with pytest.raises(ValueError):
        agent.watch(spec)


def test_maintenance_bounds_drift(sim, rngs, drifty_spec, qd_landscape,
                                  qd_params):
    agent = MaintenanceAgent(sim, check_interval_s=1800.0,
                             bias_tolerance=0.05)
    agent.watch(drifty_spec)
    agent.start()
    sample = Sample.synthesize(qd_params, qd_landscape)

    def grind():
        while True:
            yield from drifty_spec.measure(sample)

    sim.process(grind())
    sim.run(until=200 * 3600.0)
    assert agent.stats["calibrations"] >= 1
    # The fleet's drift stays bounded near the tolerance (it can exceed
    # briefly between sweeps, never run away).
    assert agent.worst_bias() < 0.2
    assert drifty_spec.calibration.calibrations == agent.stats["calibrations"]


def test_maintenance_without_agent_drift_runs_away(sim, rngs, qd_landscape,
                                                   qd_params):
    cal = CalibrationModel(rngs.stream("cal2"), drift_per_hour=0.08,
                           procedure_time_s=300.0, max_abs_bias=5.0)
    spec = PLSpectrometer(sim, "spec-2", "s", rngs, scan_time_s=600.0,
                          calibration=cal)
    sample = Sample.synthesize(qd_params, qd_landscape)

    def grind():
        while True:
            yield from spec.measure(sample)

    sim.process(grind())
    sim.run(until=200 * 3600.0)
    # 200 operating hours of unattended random walk: typically way past
    # any QA tolerance (this is the contrast for the test above).
    assert abs(cal.bias()) > 0.05


def test_maintenance_double_start(sim):
    agent = MaintenanceAgent(sim)
    agent.start()
    with pytest.raises(RuntimeError):
        agent.start()


# -- schema-negotiated ingest ----------------------------------------------------------

@pytest.fixture
def mesh_node(sim, testbed_network):
    mesh = FederatedDataMesh(sim, testbed_network)
    node = mesh.make_node("site-0", institution="inst-0")
    node.schemas.register(Schema("pl", 1, (
        FieldSpec("plqy", unit="fraction", lo=0.0, hi=1.0),
        FieldSpec("emission_nm", unit="nm",
                  aliases=("wavelength", "peak_nm")),
        FieldSpec("temperature", unit="C", required=False),
    )))
    return node


def test_normalize_and_ingest_foreign_dialect(mesh_node):
    # A kelvin-sci-style payload: percent PLQY, angstrom peak, kelvin temp.
    rec = DataRecord(source="foreign-spec",
                     values={"plqy": 45.0, "peak_nm": 5230.0,
                             "temperature_K": 373.15},
                     metadata={"units": {"plqy": "percent",
                                         "peak_nm": "A"}})
    mesh_node.normalize_and_ingest(rec, "pl")
    assert rec.schema_id == "pl@1"
    assert rec.values["plqy"] == pytest.approx(0.45)
    assert rec.values["emission_nm"] == pytest.approx(523.0)
    assert rec.values["temperature"] == pytest.approx(100.0)
    assert mesh_node.has(rec.record_id)
    assert rec.metadata["units"]["emission_nm"] == "nm"


def test_normalize_and_ingest_unmappable_fails(mesh_node):
    rec = DataRecord(source="junk", values={"intensity": 3.0})
    with pytest.raises(SchemaError, match="plqy"):
        mesh_node.normalize_and_ingest(rec, "pl")
    assert len(mesh_node) == 0


def test_normalize_and_ingest_unknown_schema(mesh_node):
    rec = DataRecord(source="x", values={"plqy": 0.5})
    with pytest.raises(SchemaError, match="no schema named"):
        mesh_node.normalize_and_ingest(rec, "ghost")


# -- secured message bus -------------------------------------------------------------------

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
