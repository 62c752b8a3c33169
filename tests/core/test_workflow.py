"""Tests for the workflow DAG executor."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkflowDAG
from repro.core.workflow import WorkflowError
from repro.sim import Simulator


def make_step(sim, duration, value=None, fail=False):
    def factory(results):
        def gen():
            yield sim.timeout(duration)
            if fail:
                raise RuntimeError("step exploded")
            return value
        return gen()
    return factory


def test_linear_workflow_runs_in_order(sim):
    wf = WorkflowDAG(sim, "linear")
    wf.add("a", make_step(sim, 10.0, "A"))
    wf.add("b", make_step(sim, 5.0, "B"), deps=("a",))
    wf.add("c", make_step(sim, 1.0, "C"), deps=("b",))
    out = {}

    def proc():
        out["r"] = yield from wf.run()

    sim.process(proc())
    sim.run()
    assert out["r"] == {"a": "A", "b": "B", "c": "C"}
    assert sim.now == pytest.approx(16.0)
    assert wf.critical_path() == ["a", "b", "c"]


def test_independent_steps_run_in_parallel(sim):
    wf = WorkflowDAG(sim)
    wf.add("a", make_step(sim, 10.0))
    wf.add("b", make_step(sim, 10.0))
    wf.add("join", make_step(sim, 1.0), deps=("a", "b"))

    def proc():
        yield from wf.run()

    sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(11.0)  # not 21: a and b overlapped


def test_step_receives_upstream_results(sim):
    wf = WorkflowDAG(sim)
    wf.add("synth", make_step(sim, 1.0, {"sample": 42}))

    def analyze_factory(results):
        def gen():
            yield sim.timeout(1.0)
            return results["synth"]["sample"] * 2
        return gen()

    wf.add("analyze", analyze_factory, deps=("synth",))
    out = {}

    def proc():
        out["r"] = yield from wf.run()

    sim.process(proc())
    sim.run()
    assert out["r"]["analyze"] == 84


def test_required_failure_aborts(sim):
    wf = WorkflowDAG(sim)
    wf.add("bad", make_step(sim, 1.0, fail=True))
    wf.add("after", make_step(sim, 1.0), deps=("bad",))

    def proc():
        with pytest.raises(WorkflowError, match="bad"):
            yield from wf.run()

    sim.process(proc())
    sim.run()
    assert "bad" in wf.failures


def test_optional_failure_skips_downstream(sim):
    wf = WorkflowDAG(sim)
    wf.add("main", make_step(sim, 1.0, "ok"))
    wf.add("extra", make_step(sim, 1.0, fail=True), optional=True)
    wf.add("uses-extra", make_step(sim, 1.0), deps=("extra",))
    out = {}

    def proc():
        out["r"] = yield from wf.run()

    sim.process(proc())
    sim.run()
    assert out["r"] == {"main": "ok"}
    assert wf.failures["uses-extra"] == "upstream failure"


def test_retries_recover_flaky_step(sim):
    attempts = []

    def flaky_factory(results):
        def gen():
            yield sim.timeout(1.0)
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("flake")
            return "finally"
        return gen()

    wf = WorkflowDAG(sim)
    wf.add("flaky", flaky_factory, retries=3)
    out = {}

    def proc():
        out["r"] = yield from wf.run()

    sim.process(proc())
    sim.run()
    assert out["r"]["flaky"] == "finally"
    assert len(attempts) == 3


def test_duplicate_and_unknown_dep_rejected(sim):
    wf = WorkflowDAG(sim)
    wf.add("a", make_step(sim, 1.0))
    with pytest.raises(WorkflowError, match="duplicate"):
        wf.add("a", make_step(sim, 1.0))
    with pytest.raises(WorkflowError, match="unknown"):
        wf.add("b", make_step(sim, 1.0), deps=("ghost",))


def test_self_and_forward_deps_rejected_at_add(sim):
    # Every dependency must already be a step, so no cycle can be built.
    wf = WorkflowDAG(sim)
    wf.add("a", make_step(sim, 1.0))
    with pytest.raises(WorkflowError, match="unknown 'b'"):
        wf.add("b", make_step(sim, 1.0), deps=("b",))
    with pytest.raises(WorkflowError, match="unknown 'c'"):
        wf.add("b", make_step(sim, 1.0), deps=("a", "c"))
    assert len(wf) == 1


def test_diamond_dependency(sim):
    wf = WorkflowDAG(sim)
    wf.add("src", make_step(sim, 1.0, 1))
    wf.add("left", make_step(sim, 5.0, 2), deps=("src",))
    wf.add("right", make_step(sim, 3.0, 3), deps=("src",))
    wf.add("sink", make_step(sim, 1.0, 4), deps=("left", "right"))

    def proc():
        yield from wf.run()

    sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(7.0)  # 1 + max(5,3) + 1
    assert wf.critical_path() == ["src", "left", "sink"]


def _reference_critical_path(wf, steps):
    """The longest chain computed over ``nx.topological_sort``."""
    graph = nx.DiGraph()
    for name, deps, _ in steps:
        graph.add_node(name)
        for dep in deps:
            graph.add_edge(dep, name)
    best = {}
    for node in nx.topological_sort(graph):
        start, end = wf.timings[node]
        preds = list(graph.predecessors(node))
        cost, path = (max((best[p] for p in preds), key=lambda t: t[0])
                      if preds else (0.0, []))
        best[node] = (cost + (end - start), path + [node])
    return max(best.values(), key=lambda t: t[0])[1]


@st.composite
def _dags(draw):
    """2-9 steps, each depending on up to three earlier ones (repeats
    allowed), with durations from {0, 1, 2} so chains tie often."""
    steps = []
    for i in range(draw(st.integers(2, 9))):
        earlier = [name for name, _, _ in steps]
        deps = tuple(draw(st.lists(st.sampled_from(earlier), max_size=3))
                     if earlier else ())
        steps.append((f"s{i}", deps, float(draw(st.integers(0, 2)))))
    return steps


@given(_dags())
@settings(max_examples=80, deadline=None)
def test_property_critical_path_matches_networkx(steps):
    sim = Simulator()
    wf = WorkflowDAG(sim)
    for name, deps, duration in steps:
        wf.add(name, make_step(sim, duration), deps=deps)

    def proc():
        yield from wf.run()

    sim.process(proc())
    sim.run()
    assert wf.critical_path() == _reference_critical_path(wf, steps)
