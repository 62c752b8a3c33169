"""Edge-case tests across the kernel and small utility surfaces."""

import pytest

from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_event_trigger_mirrors_success(sim):
    src, dst = sim.event(), sim.event()
    src.succeed("payload")
    dst.trigger(src)
    got = []

    def waiter():
        got.append((yield dst))

    sim.process(waiter())
    sim.run()
    assert got == ["payload"]


def test_event_trigger_mirrors_failure(sim):
    src, dst = sim.event(), sim.event()
    caught = []

    def waiter():
        # Register interest in dst *before* the mirror fires.
        try:
            yield dst
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())

    def mirror():
        yield sim.timeout(1.0)
        src.fail(ValueError("mirrored"))
        src._defused = True  # the mirror takes responsibility for src
        dst.trigger(src)

    sim.process(mirror())
    sim.run()
    assert caught == ["mirrored"]


def test_process_target_property(sim):
    def proc():
        yield sim.timeout(10.0)

    p = sim.process(proc())
    assert p.target is None  # not started yet
    sim.run(until=1.0)
    assert p.target is not None  # waiting on the timeout
    sim.run()
    assert p.target is None


def test_schedule_callback_returns_waitable_event(sim):
    fired = []
    ev = sim.schedule_callback(3.0, lambda: fired.append("cb"),
                               value="extra")
    got = []

    def waiter():
        got.append((yield ev))

    sim.process(waiter())
    sim.run()
    assert fired == ["cb"]
    assert got == ["extra"]


def test_schedule_callback_stays_untriggered_until_fired(sim):
    # Regression: the event used to be marked ok at *creation*, so code
    # inspecting it before the delay elapsed saw a triggered event.
    ev = sim.schedule_callback(3.0, lambda: None, value="v")
    assert not ev.triggered
    sim.run(until=2.0)
    assert not ev.triggered
    sim.run(until=4.0)
    assert ev.triggered and ev.ok and ev.value == "v"


def test_or_of_failing_and_succeeding_event(sim):
    # AnyOf fails fast if the failing child fires first.
    caught = []

    def waiter():
        bad = sim.event()
        bad.fail(RuntimeError("fast failure"), delay=1.0)
        slow = sim.timeout(5.0, "slow")
        try:
            yield bad | slow
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    sim.run()
    assert caught == ["fast failure"]


def test_run_until_already_processed_event(sim):
    t = sim.timeout(1.0, "v")
    sim.run()
    assert sim.run(until=t) == "v"  # returns instantly


def test_run_until_already_failed_event(sim):
    def boom():
        yield sim.timeout(1.0)
        raise ValueError("late read")

    p = sim.process(boom())
    with pytest.raises(ValueError):
        sim.run(until=p)
    with pytest.raises(ValueError, match="late read"):
        sim.run(until=p)  # still raises on re-wait


def test_twin_predict_without_landscape(sim):
    from repro.instruments import DigitalTwin, LiquidHandler
    from repro.sim import RngRegistry
    rngs = RngRegistry(0)
    lh = LiquidHandler(sim, "lh", "s", rngs)
    twin = DigitalTwin(lh)  # no landscape: envelope checks only
    assert twin.check({"volume_uL": 100.0}).ok
    with pytest.raises(RuntimeError, match="no landscape"):
        twin.predict({"volume_uL": 100.0})


def test_workflow_critical_path_with_failures(sim):
    from repro.core import WorkflowDAG

    def ok(results):
        def gen():
            yield sim.timeout(5.0)
            return 1
        return gen()

    def bad(results):
        def gen():
            yield sim.timeout(1.0)
            raise RuntimeError("x")
        return gen()

    wf = WorkflowDAG(sim)
    wf.add("a", ok)
    wf.add("b", bad, optional=True)
    wf.add("c", ok, deps=("a",))
    out = {}

    def run():
        out["r"] = yield from wf.run()

    sim.process(run())
    sim.run()
    assert out["r"] == {"a": 1, "c": 1}
    assert wf.critical_path() == ["a", "c"]


def test_manual_working_hours_window():
    from repro.core.manual import DAY, ManualOrchestrator

    class Stub(ManualOrchestrator):
        def __init__(self):
            pass  # _next_working_instant reads only the WORKDAY constant

    stub = Stub()
    # 3 am -> 9 am same day; noon stays; 8 pm -> 9 am next day.
    assert stub._next_working_instant(3 * 3600.0) == 9 * 3600.0
    assert stub._next_working_instant(12 * 3600.0) == 12 * 3600.0
    assert stub._next_working_instant(20 * 3600.0) == DAY + 9 * 3600.0
    # exactly at close -> next morning
    assert stub._next_working_instant(17 * 3600.0) == DAY + 9 * 3600.0
