"""Tests for the common instrument model."""

import pytest

from repro.instruments import (BatchSynthesisRobot, InstrumentFault,
                               InstrumentStatus, OutOfSpec)


def make_robot(sim, rngs, landscape, **kw):
    return BatchSynthesisRobot(sim, "robot-1", "ornl", rngs, landscape,
                               batch_time_s=100.0, **kw)


def test_synthesize_spends_time_and_returns_sample(sim, rngs, qd_landscape,
                                                   qd_params):
    robot = make_robot(sim, rngs, qd_landscape)
    out = {}

    def proc():
        out["sample"] = yield from robot.synthesize(qd_params, requester="t")

    sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(100.0)
    assert out["sample"].params == qd_params
    assert robot.samples_made == 1
    assert robot.stats["operations"] == 1
    assert robot.reagent_used_mL == 10.0


def test_duty_cycle_serializes_concurrent_use(sim, rngs, qd_landscape,
                                              qd_params):
    robot = make_robot(sim, rngs, qd_landscape)
    finish = []

    def proc(tag):
        yield from robot.synthesize(qd_params)
        finish.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert finish == [("a", pytest.approx(100.0)),
                      ("b", pytest.approx(200.0))]


def test_interlock_rejects_out_of_envelope(sim, rngs, qd_landscape,
                                           qd_params):
    robot = make_robot(sim, rngs, qd_landscape)
    bad = dict(qd_params, temperature=1000.0)  # > 400 C interlock

    def proc():
        with pytest.raises(OutOfSpec):
            yield from robot.synthesize(bad)

    sim.process(proc())
    sim.run()
    assert sim.now == 0.0  # rejected before any time was spent
    assert robot.stats["rejected"] == 1


def test_fault_model_faults_eventually(sim, rngs, qd_landscape, qd_params):
    robot = make_robot(sim, rngs, qd_landscape, mtbf_hours=0.01)
    faults = []

    def proc():
        for _ in range(50):
            try:
                yield from robot.synthesize(qd_params)
            except InstrumentFault:
                faults.append(sim.now)
                return

    sim.process(proc())
    sim.run()
    assert faults
    assert robot.status is InstrumentStatus.FAULT


def test_faulted_instrument_refuses_work_until_repaired(sim, rngs,
                                                        qd_landscape,
                                                        qd_params):
    robot = make_robot(sim, rngs, qd_landscape, repair_time_s=500.0)
    robot.inject_fault()
    trail = []

    def proc():
        with pytest.raises(InstrumentFault):
            yield from robot.synthesize(qd_params)
        yield from robot.repair()
        trail.append(("repaired", sim.now))
        yield from robot.synthesize(qd_params)
        trail.append(("made", sim.now))

    sim.process(proc())
    sim.run()
    assert trail[0] == ("repaired", pytest.approx(500.0))
    assert trail[1] == ("made", pytest.approx(600.0))
    assert robot.stats["repairs"] == 1


def test_repair_noop_when_not_faulted(sim, rngs, qd_landscape):
    robot = make_robot(sim, rngs, qd_landscape)

    def proc():
        yield from robot.repair()

    sim.process(proc())
    sim.run()
    assert sim.now == 0.0


def test_capability_descriptor_shape(sim, rngs, qd_landscape):
    robot = make_robot(sim, rngs, qd_landscape)
    desc = robot.capability_descriptor()
    assert desc["kind"] == "synthesis-robot"
    assert "synthesize" in desc["operations"]
    assert "temperature" in desc["envelope"]
