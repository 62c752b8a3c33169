"""Tests for vendor dialects, the HAL, HPC, and digital twins."""

import numpy as np
import pytest

from repro.instruments import (BatchSynthesisRobot, DigitalTwin,
                               FluidicReactor, HardwareAbstractionLayer,
                               HpcCluster, OperationRequest, PLSpectrometer,
                               VENDOR_DIALECTS, VendorError,
                               make_vendor_protocol)
from repro.labsci import Sample


def run(sim, gen):
    out = {}

    def proc():
        out["r"] = yield from gen
    sim.process(proc())
    sim.run()
    return out["r"]


# -- dialect encode/decode round trips -------------------------------------------

@pytest.mark.parametrize("vendor", sorted(VENDOR_DIALECTS))
def test_dialect_roundtrip(vendor):
    dialect = VENDOR_DIALECTS[vendor]
    params = {"temperature": 150.0, "residence_time": 120.0,
              "dopant": "Ag", "flow_ratio": 0.4}
    decoded = dialect.decode(dialect.encode(dict(params)))
    assert decoded["dopant"] == "Ag"
    assert decoded["flow_ratio"] == 0.4
    assert decoded["temperature"] == pytest.approx(150.0)
    assert decoded["residence_time"] == pytest.approx(120.0)


def test_kelvin_dialect_wire_format():
    enc = VENDOR_DIALECTS["kelvin-sci"].encode(
        {"temperature": 100.0, "residence_time": 60.0})
    assert enc["temperature_K"] == pytest.approx(373.15)
    assert enc["residence_time_min"] == pytest.approx(1.0)


def test_helios_dialect_wire_format():
    enc = VENDOR_DIALECTS["helios"].encode({"temperature": 100.0})
    assert enc["recipe"]["T_setpoint_F"] == pytest.approx(212.0)
    assert enc["schema"] == "helios/v2"


def test_customlab_dialect_wire_format():
    enc = VENDOR_DIALECTS["custom-lab"].encode({"hold_time": 7200.0})
    assert ("hold_time_hr", pytest.approx(2.0)) in [
        (k, pytest.approx(v)) for k, v in enc]


def test_decode_rejects_malformed_payloads():
    with pytest.raises(VendorError):
        VENDOR_DIALECTS["helios"].decode({"no_recipe": 1})
    with pytest.raises(VendorError):
        VENDOR_DIALECTS["custom-lab"].decode({"not": "a list"})
    with pytest.raises(VendorError):
        VENDOR_DIALECTS["aisle-ref"].decode([1, 2])


# -- vendor protocol --------------------------------------------------------------

def test_protocol_rejects_unknown_command(sim, rngs, qd_landscape):
    robot = BatchSynthesisRobot(sim, "r", "ornl", rngs, qd_landscape,
                                batch_time_s=10.0)
    proto = make_vendor_protocol(robot, "kelvin-sci")

    def proc():
        with pytest.raises(VendorError, match="does not understand"):
            # Canonical command name sent to a kelvin-sci device.
            yield from proto.invoke("synthesize", {"temperature_K": 400.0})

    sim.process(proc())
    sim.run()
    assert proto.stats["errors"] == 1


def test_protocol_native_command_works(sim, rngs, qd_landscape, qd_params):
    robot = BatchSynthesisRobot(sim, "r", "ornl", rngs, qd_landscape,
                                batch_time_s=10.0)
    proto = make_vendor_protocol(robot, "kelvin-sci")
    payload = VENDOR_DIALECTS["kelvin-sci"].encode(dict(qd_params))
    sample = run(sim, proto.invoke("StartSynthesis", payload))
    assert isinstance(sample, Sample)
    # Decoded temperature equals the canonical request.
    assert sample.params["temperature"] == pytest.approx(
        qd_params["temperature"])


def test_unknown_vendor_rejected(sim, rngs, qd_landscape):
    robot = BatchSynthesisRobot(sim, "r", "ornl", rngs, qd_landscape)
    with pytest.raises(KeyError, match="unknown vendor"):
        make_vendor_protocol(robot, "nonexistent")


# -- HAL ------------------------------------------------------------------------------

@pytest.fixture
def hal_with_four_vendors(sim, rngs, qd_landscape):
    hal = HardwareAbstractionLayer()
    robots = {}
    for i, vendor in enumerate(sorted(VENDOR_DIALECTS)):
        robot = BatchSynthesisRobot(sim, f"robot-{vendor}", "ornl", rngs,
                                    qd_landscape, batch_time_s=10.0)
        hal.register(make_vendor_protocol(robot, vendor))
        robots[vendor] = robot
    return hal, robots


def test_hal_same_canonical_request_all_vendors(sim, hal_with_four_vendors,
                                                qd_params):
    hal, robots = hal_with_four_vendors
    results = {}

    def proc():
        for vendor in sorted(robots):
            req = OperationRequest(operation="synthesize",
                                   params=dict(qd_params))
            sample = yield from hal.execute(f"robot-{vendor}", req)
            results[vendor] = sample

    sim.process(proc())
    sim.run()
    assert len(results) == 4
    # All vendors produced the *same* material from the canonical recipe.
    props = [s.true_properties()["plqy"] for s in results.values()]
    assert all(p == pytest.approx(props[0]) for p in props)


def test_without_hal_only_matching_dialect_works(sim, hal_with_four_vendors,
                                                 qd_params):
    _, robots = hal_with_four_vendors
    outcomes = {}

    def proc():
        for vendor, robot in sorted(robots.items()):
            proto = make_vendor_protocol(robot, vendor)
            try:
                # A client that only speaks canonical AISLE: canonical
                # command name, canonical flat params.
                yield from proto.invoke("synthesize", dict(qd_params))
                outcomes[vendor] = "ok"
            except VendorError:
                outcomes[vendor] = "error"

    sim.process(proc())
    sim.run()
    assert outcomes["aisle-ref"] == "ok"
    assert outcomes["kelvin-sci"] == "error"
    assert outcomes["custom-lab"] == "error"
    # helios: 'execute' != 'synthesize' -> also an error
    assert outcomes["helios"] == "error"


def test_hal_unsupported_operation(sim, hal_with_four_vendors):
    hal, _ = hal_with_four_vendors

    def proc():
        with pytest.raises(VendorError, match="does not support"):
            yield from hal.execute("robot-helios",
                                   OperationRequest(operation="measure"))

    sim.process(proc())
    sim.run()


def test_hal_inventory(sim, hal_with_four_vendors):
    hal, robots = hal_with_four_vendors
    adapters = [hal.adapter(robot.name) for robot in robots.values()]
    assert len(adapters) == 4
    assert all(a.supports("synthesize") for a in adapters)
    assert not any(a.supports("measure") for a in adapters)
    assert hal.adapter("robot-helios").vendor == "helios"


def test_hal_duplicate_registration_rejected(sim, rngs, qd_landscape):
    hal = HardwareAbstractionLayer()
    robot = BatchSynthesisRobot(sim, "r", "ornl", rngs, qd_landscape)
    hal.register(make_vendor_protocol(robot, "aisle-ref"))
    with pytest.raises(ValueError):
        hal.register(make_vendor_protocol(robot, "helios"))


def test_hal_unknown_instrument(sim):
    hal = HardwareAbstractionLayer()
    with pytest.raises(KeyError, match="no HAL adapter"):
        hal.adapter("ghost")


def test_hal_measure_through_vendor(sim, rngs, qd_landscape, qd_params):
    hal = HardwareAbstractionLayer()
    spec = PLSpectrometer(sim, "spec-1", "ornl", rngs, scan_time_s=5.0)
    hal.register(make_vendor_protocol(spec, "kelvin-sci"))
    sample = Sample.synthesize(qd_params, qd_landscape)
    req = OperationRequest(operation="measure", sample=sample)
    m = run(sim, hal.execute("spec-1", req))
    assert m.kind == "pl-spectrum"


def test_hal_flow_synthesis_through_custom_lab(sim, rngs, qd_landscape,
                                               qd_params):
    # custom-lab carries times in hours: residence_time crosses the wire
    # as residence_time_hr and arrives back in seconds.
    hal = HardwareAbstractionLayer()
    reactor = FluidicReactor(sim, "flow-1", "ornl", rngs, qd_landscape,
                             sample_time_s=30.0, prime_time_s=0.0)
    hal.register(make_vendor_protocol(reactor, "custom-lab"))
    req = OperationRequest(operation="synthesize", params=dict(qd_params))
    sample = run(sim, hal.execute("flow-1", req))
    assert sample.params["residence_time"] == pytest.approx(
        qd_params["residence_time"])
    assert sample.true_properties()["plqy"] == pytest.approx(
        qd_landscape.evaluate(qd_params)["plqy"])
    assert reactor.samples_made == 1
    assert sim.now == pytest.approx(30.0)


# -- HPC -------------------------------------------------------------------------------

def test_hpc_job_queues_when_full(sim, rngs):
    hpc = HpcCluster(sim, "hpc", "ornl", rngs, n_nodes=2)
    finish = []

    def proc(tag):
        result = yield from hpc.run_job(walltime_s=100.0, n_nodes=2)
        finish.append((tag, sim.now, result.queued_s))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert finish[0] == ("a", pytest.approx(100.0), 0.0)
    assert finish[1][1] == pytest.approx(200.0)
    assert finish[1][2] == pytest.approx(100.0)


def test_hpc_oversized_job_rejected(sim, rngs):
    hpc = HpcCluster(sim, "hpc", "ornl", rngs, n_nodes=4)
    with pytest.raises(ValueError):
        next(hpc.run_job(10.0, n_nodes=8))


def test_hpc_simulate_fidelity_tradeoff(sim, rngs, qd_landscape, qd_params):
    hpc = HpcCluster(sim, "hpc", "ornl", rngs, n_nodes=16)
    truth = qd_landscape.evaluate(qd_params)["plqy"]

    def errs(fidelity, n=10):
        out = []

        def proc():
            for _ in range(n):
                r = yield from hpc.simulate(qd_landscape, qd_params, fidelity)
                out.append(abs(r.values["plqy"] - truth))
        sim.process(proc())
        sim.run()
        return np.mean(out)

    low = errs("low")
    high = errs("high")
    assert high < low


def test_hpc_unknown_fidelity(sim, rngs, qd_landscape, qd_params):
    hpc = HpcCluster(sim, "hpc", "ornl", rngs)
    with pytest.raises(ValueError):
        next(hpc.simulate(qd_landscape, qd_params, "ultra"))


# -- digital twin ------------------------------------------------------------------------

@pytest.fixture
def twin(sim, rngs, qd_landscape):
    robot = BatchSynthesisRobot(sim, "r", "ornl", rngs, qd_landscape,
                                batch_time_s=10.0)
    return DigitalTwin(
        robot, landscape=qd_landscape, rngs=rngs,
        safety_envelope={"temperature": (60.0, 220.0)},
        forbidden_combinations=[{"solvent": "DMF",
                                 "temperature": (160.0, None)}])


def test_twin_accepts_safe_params(twin, qd_params):
    verdict = twin.check(qd_params)
    assert verdict.ok
    assert not verdict.reasons


def test_twin_rejects_unsafe_temperature(twin, qd_params):
    bad = dict(qd_params, temperature=350.0)  # inside interlock, outside safe
    verdict = twin.check(bad)
    assert not verdict.ok
    assert any("safe envelope" in r for r in verdict.reasons)


def test_twin_rejects_forbidden_combination(twin, qd_params):
    bad = dict(qd_params, solvent="DMF", temperature=200.0)
    verdict = twin.check(bad)
    assert not verdict.ok
    assert any("forbidden" in r for r in verdict.reasons)
    ok = dict(qd_params, solvent="DMF", temperature=100.0)
    assert twin.check(ok).ok


def test_twin_prediction_close_to_truth(twin, qd_landscape, qd_params):
    pred = twin.predict(qd_params)
    truth = qd_landscape.evaluate(qd_params)
    assert pred["plqy"] == pytest.approx(truth["plqy"], rel=0.3)


def test_twin_validate_flags_ungrounded_claims(sim, twin, qd_params):
    out = {}

    def proc():
        # Planner claims an absurd PLQY for a mediocre recipe.
        v = yield from twin.validate(qd_params, expected={"plqy": 50.0},
                                     tolerance=0.5)
        out["bogus"] = v
        v = yield from twin.validate(
            qd_params, expected=twin.landscape.evaluate(qd_params),
            tolerance=0.5)
        out["honest"] = v

    sim.process(proc())
    sim.run()
    assert not out["bogus"].ok
    assert out["honest"].ok
    assert sim.now == pytest.approx(2 * twin.CHECK_TIME_S)  # two checks
