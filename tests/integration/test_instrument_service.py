"""Tests for remote instrument microservices (M10)."""

import pytest

from repro.instruments import (BatchSynthesisRobot, HardwareAbstractionLayer,
                               OperationRequest, PLSpectrometer,
                               make_vendor_protocol)
from repro.instruments.service import (InstrumentService,
                                       RemoteInstrumentClient)
from repro.labsci import Sample


@pytest.fixture
def service(sim, rngs, qd_landscape):
    hal = HardwareAbstractionLayer()
    robot = BatchSynthesisRobot(sim, "robot-1", "b", rngs, qd_landscape,
                                batch_time_s=120.0)
    spec = PLSpectrometer(sim, "spec-1", "b", rngs, scan_time_s=30.0)
    hal.register(make_vendor_protocol(robot, "kelvin-sci"))
    hal.register(make_vendor_protocol(spec, "helios"))
    return InstrumentService(sim, hal, site="b")


@pytest.fixture
def remote(sim, network, service):
    return RemoteInstrumentClient(sim, network, site="a", service=service)


def run(sim, gen):
    out = {}

    def proc():
        out["r"] = yield from gen
    sim.process(proc())
    sim.run()
    return out["r"]


def test_remote_synthesis_round_trip(sim, remote, qd_params):
    req = OperationRequest(operation="synthesize", params=dict(qd_params),
                           requester="remote-agent")
    sample = run(sim, remote.execute("robot-1", req))
    assert isinstance(sample, Sample)
    assert sample.params["temperature"] == pytest.approx(
        qd_params["temperature"])
    # Network legs + 120 s batch: the wall clock reflects both.
    assert sim.now > 120.0


def test_remote_measurement(sim, remote, qd_landscape, qd_params):
    sample = Sample.synthesize(qd_params, qd_landscape, site="b")
    req = OperationRequest(operation="measure", sample=sample)
    m = run(sim, remote.execute("spec-1", req))
    assert m.kind == "pl-spectrum"
    assert m.sample_id == sample.sample_id


def test_remote_inventory(sim, remote):
    inv = run(sim, remote.inventory())
    assert set(inv) == {"robot-1", "spec-1"}
    assert inv["robot-1"]["vendor"] == "kelvin-sci"


def test_remote_unknown_instrument_propagates_error(sim, remote, qd_params):
    from repro.comm import RpcError

    def proc():
        with pytest.raises(RpcError, match="no HAL adapter"):
            yield from remote.execute(
                "ghost", OperationRequest(operation="synthesize",
                                          params=dict(qd_params)))

    sim.process(proc())
    sim.run()


def test_remote_unsupported_operation(sim, remote):
    from repro.comm import RpcError

    def proc():
        with pytest.raises(RpcError, match="does not support"):
            yield from remote.execute(
                "robot-1", OperationRequest(operation="measure"))

    sim.process(proc())
    sim.run()


def test_service_announcement_shape(service):
    ann = service.announcement()
    assert ann.service_type == InstrumentService.SERVICE_TYPE
    assert ann.capabilities["instruments"] == ["robot-1", "spec-1"]


def test_remote_with_zero_trust_gateway(sim, network, service, qd_params):
    from repro.security import (FederatedIdentityProvider, Identity,
                                PolicyEngine, SecurityError, TrustFabric,
                                ZeroTrustGateway)
    from repro.security.abac import allow_all_within_federation
    fabric = TrustFabric()
    idp = FederatedIdentityProvider(sim, "Lab A")
    idp.enroll(Identity.make("agent@Lab A", "Lab A", role="agent"))
    fabric.add_provider(idp)
    idp_b = FederatedIdentityProvider(sim, "Lab B")
    fabric.add_provider(idp_b)
    fabric.federate()
    gateway = ZeroTrustGateway(
        sim, fabric, PolicyEngine(allow_all_within_federation()),
        site_institution={"a": "Lab A", "b": "Lab B"})
    token = idp.issue("agent@Lab A")
    remote = RemoteInstrumentClient(sim, network, site="a", service=service,
                                    gateway=gateway, token=token)
    req = OperationRequest(operation="synthesize", params=dict(qd_params))
    sample = run(sim, remote.execute("robot-1", req))
    assert isinstance(sample, Sample)
    assert gateway.stats["verified"] >= 1

    # And with a revoked credential, the call is refused at the edge.
    idp.revoke(token)

    def proc():
        with pytest.raises(SecurityError):
            yield from remote.execute("robot-1", req)

    sim.process(proc())
    sim.run()


def test_executor_agent_can_use_remote_instruments(sim, rngs, network,
                                                   service, qd_landscape,
                                                   qd_params):
    """The M2 payoff: the standard ExecutorAgent drives a remote HAL."""
    from repro.agents import AgentRuntime, ExecutorAgent
    from repro.agents.planner import ExperimentPlan

    class RemoteCharacterization:
        """Adapter giving measure() the local-instrument call shape."""

        def __init__(self, remote):
            self.remote = remote

        def measure(self, sample, requester=""):
            result = yield from self.remote.execute(
                "spec-1", OperationRequest(operation="measure",
                                           sample=sample,
                                           requester=requester))
            return result

    remote = RemoteInstrumentClient(sim, network, site="a", service=service)
    runtime = AgentRuntime(sim, network)
    executor = ExecutorAgent(sim, "exec", "a", runtime, remote, "robot-1",
                             RemoteCharacterization(remote),
                             objective_key="plqy")
    outcome = run(sim, executor.execute(ExperimentPlan(params=qd_params)))
    assert outcome.valid
    assert outcome.objective is not None
