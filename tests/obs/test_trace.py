"""Tests for deterministic tracing: spans, kernel hooks, JSONL export."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CampaignSpec
from repro.labsci import QuantumDotLandscape
from repro.obs import (NULL_TRACER, Tracer, load_jsonl, to_jsonl,
                       write_jsonl)
from repro.sim import Simulator
from repro.testbed import Testbed


# -- span mechanics ---------------------------------------------------------

def test_spans_nest_and_carry_sim_time(sim):
    tracer = Tracer(sim)

    def proc():
        with tracer.span("outer", label="a"):
            yield sim.timeout(5.0)
            with tracer.span("inner"):
                yield sim.timeout(2.0)
            tracer.instant("mark", x=1)

    p = sim.process(proc())
    sim.run(until=p)
    roots = tracer.span_tree()
    assert len(roots) == 1
    outer = roots[0]
    assert outer["name"] == "outer"
    assert outer["duration"] == 7.0
    assert outer["attrs"]["label"] == "a"
    (inner,) = outer["children"]
    assert inner["name"] == "inner"
    assert inner["start"] == 5.0 and inner["duration"] == 2.0
    marks = [e for e in tracer.events if e.kind == "instant"]
    assert marks[0].name == "mark" and marks[0].span == outer["span"]


def test_span_records_error_on_exception(sim):
    tracer = Tracer(sim)
    try:
        with tracer.span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    end = [e for e in tracer.events if e.kind == "span-end"][0]
    assert end.attrs["error"] == "RuntimeError"


def test_break_out_of_nested_spans_closes_children(sim):
    tracer = Tracer(sim)
    with tracer.span("outer"):
        # Simulate a dangling child (generator abandoned mid-span).
        tracer.span("dangling")
    assert tracer.current_span is None
    roots = tracer.span_tree()
    assert roots[0]["name"] == "outer"
    assert roots[0]["children"][0]["name"] == "dangling"


def test_seq_is_monotonic_and_zero_based(sim):
    tracer = Tracer(sim)
    with tracer.span("a"):
        tracer.instant("b")
    assert [e.seq for e in tracer.events] == [0, 1, 2]


def test_null_tracer_is_inert(sim):
    with NULL_TRACER.span("x", a=1):
        NULL_TRACER.instant("y")
    assert NULL_TRACER.events == []
    assert NULL_TRACER.span_tree() == []


# -- kernel hooks -----------------------------------------------------------

def test_untraced_simulator_has_no_hooks():
    sim = Simulator()
    assert sim.step_hook is None and sim.schedule_hook is None


# -- export + determinism ---------------------------------------------------

def _traced_run():
    built = (Testbed(seed=5)
             .with_metrics()
             .with_tracing()
             .site("site-0", landscape=QuantumDotLandscape(seed=7))
             .build())
    spec = CampaignSpec(name="t", objective_key="plqy", max_experiments=6)
    built.run(spec, site="site-0")
    return built


def test_two_seeded_runs_export_byte_identical_traces():
    a, b = _traced_run(), _traced_run()
    assert to_jsonl(a.tracer) == to_jsonl(b.tracer)
    assert len(a.tracer.events) > 0


def test_jsonl_roundtrip(tmp_path, sim):
    tracer = Tracer(sim)
    with tracer.span("s", k="v"):
        tracer.instant("i", n=2)
    path = str(tmp_path / "trace.jsonl")
    n = write_jsonl(tracer, path)
    assert n == len(tracer.events)
    back = load_jsonl(path)
    assert back == tracer.events  # frozen dataclasses compare by value


def test_campaign_trace_has_expected_span_shape():
    built = _traced_run()
    (campaign,) = built.tracer.span_tree()
    assert campaign["name"] == "campaign"
    experiments = [c for c in campaign["children"]
                   if c["name"] == "experiment"]
    assert len(experiments) == 6
    phases = [c["name"] for c in experiments[0]["children"]]
    assert phases == ["plan", "verify", "execute", "evaluate"]


def test_concurrent_campaigns_trace_one_tree_each():
    """Two sites run six-experiment campaigns at once under one tracer:
    each campaign is its own root, with its own experiments below it."""
    built = (Testbed(seed=4)
             .with_tracing()
             .site("site-0", landscape=QuantumDotLandscape(seed=7))
             .site("site-1", landscape=QuantumDotLandscape(seed=7))
             .build())
    spec = CampaignSpec(name="c", objective_key="plqy", max_experiments=6)
    for site in ("site-0", "site-1"):
        built.sim.process(built.orchestrator(site).run_campaign(spec))
    built.sim.run()
    roots = built.tracer.span_tree()
    assert [r["name"] for r in roots] == ["campaign", "campaign"]
    assert [r["attrs"]["site"] for r in roots] == ["site-0", "site-1"]
    for root in roots:
        experiments = [c for c in root["children"]
                       if c["name"] == "experiment"]
        assert len(experiments) == 6
        for experiment in experiments:
            phases = [c["name"] for c in experiment["children"]]
            assert phases[-2:] == ["execute", "evaluate"]


# A process's trace program: sleeps, instants and nested spans.
_program = st.recursive(
    st.lists(st.one_of(
        st.tuples(st.just("sleep"), st.sampled_from((0.0, 0.5, 1.0, 2.5))),
        st.tuples(st.just("instant"), st.sampled_from(("i", "j")))),
        max_size=3),
    lambda inner: st.lists(st.one_of(
        st.tuples(st.just("sleep"), st.sampled_from((0.0, 0.5, 1.0, 2.5))),
        st.tuples(st.just("span"), st.sampled_from(("a", "b")), inner)),
        max_size=3),
    max_leaves=12)


def _play(sim, tracer, prefix, items):
    for item in items:
        if item[0] == "sleep":
            yield sim.timeout(item[1])
        elif item[0] == "instant":
            tracer.instant(f"{prefix}{item[1]}")
        else:
            with tracer.span(f"{prefix}{item[1]}"):
                yield from _play(sim, tracer, prefix, item[2])


def _traced(programs):
    """Run (start offset, program) pairs as processes under one tracer;
    returns the span forest and the instants, with span ids replaced by
    span paths so two runs compare by value."""
    sim = Simulator()
    tracer = Tracer(sim)

    def proc(i, offset, items):
        yield sim.timeout(offset)
        yield from _play(sim, tracer, f"p{i}/", items)

    for i, offset, items in programs:
        sim.process(proc(i, offset, items))
    sim.run()
    paths = {None: ()}

    def norm(node, path):
        here = path + (node["name"],)
        paths[node["span"]] = here
        return (node["name"], node["start"], node["end"], node["duration"],
                tuple(norm(c, here) for c in node["children"]))

    forest = tuple(norm(root, ()) for root in tracer.span_tree())
    instants = tuple((e.name, e.t, paths[e.span],
                      paths[e.parent]) for e in tracer.events
                     if e.kind == "instant")
    return forest, instants


@given(programs=st.lists(
    st.tuples(st.sampled_from((0.0, 0.5, 1.0)), _program),
    min_size=2, max_size=4))
@settings(max_examples=100, deadline=None)
def test_property_span_tree_per_process_matches_process_alone(programs):
    """N processes open and close nested spans across sleeps under one
    tracer: the forest holds each process's own trees, equal in names,
    nesting and times to that process traced alone."""
    numbered = [(i, offset, items) for i, (offset, items)
                in enumerate(programs)]
    forest, instants = _traced(numbered)
    for i, offset, items in numbered:
        alone_forest, alone_instants = _traced([(i, offset, items)])
        prefix = f"p{i}/"
        assert tuple(t for t in forest
                     if t[0].startswith(prefix)) == alone_forest
        assert tuple(e for e in instants
                     if e[0].startswith(prefix)) == alone_instants


# -- bounded ring + spill (PR 7) --------------------------------------------


def test_unbounded_tracer_keeps_plain_list(sim):
    tr = Tracer(sim)
    for i in range(5):
        tr.instant("e", i=i)
    assert isinstance(tr.events, list)
    assert len(tr.events) == 5
    assert tr.dropped == 0 and tr.spilled == 0


def test_ring_bounds_memory_and_counts_drops(sim):
    from repro.obs.metrics import MetricsRegistry
    reg = MetricsRegistry()
    tr = Tracer(sim, max_events=3, metrics=reg)
    for i in range(10):
        tr.instant("e", i=i)
    assert len(tr.events) == 3
    assert [ev.attrs["i"] for ev in tr.events] == [7, 8, 9]  # hot tail
    assert tr.dropped == 7
    assert reg.counter("obs.dropped_events").value == 7


def test_ring_rejects_nonpositive_size(sim):
    import pytest
    with pytest.raises(ValueError):
        Tracer(sim, max_events=0)


def test_spill_keeps_complete_record(tmp_path, sim):
    from repro.obs.export import load_jsonl
    from repro.obs.metrics import MetricsRegistry
    reg = MetricsRegistry()
    path = str(tmp_path / "trace.jsonl")
    tr = Tracer(sim, max_events=2, spill=path, metrics=reg)
    for i in range(6):
        tr.instant("e", i=i)
    tr.close_spill()
    events = load_jsonl(path)
    assert [ev.attrs["i"] for ev in events] == list(range(6))
    assert len(tr.events) == 2  # ring still bounded
    assert tr.dropped == 0  # nothing lost: it all hit disk
    assert tr.spilled == 6
    assert reg.counter("obs.spilled_events").value == 6
    assert reg.counter("obs.dropped_events").value == 0


def test_spill_writer_object_and_lazy_open(tmp_path, sim):
    from repro.obs.export import TraceSpillWriter
    path = str(tmp_path / "lazy.jsonl")
    writer = TraceSpillWriter(path)
    tr = Tracer(sim, spill=writer)
    import os
    assert not os.path.exists(path)  # lazy: nothing emitted yet
    tr.instant("e")
    tr.flush()
    assert os.path.exists(path)
    assert writer.events_written == 1
    tr.close_spill()
    assert tr.spill is None
    tr.instant("after-close")  # stays usable in memory
    assert tr.spilled == 1


def test_spilled_file_matches_to_jsonl_bytes(tmp_path, sim):
    from repro.obs.export import to_jsonl
    path = str(tmp_path / "trace.jsonl")
    tr = Tracer(sim, spill=path)
    with tr.span("outer"):
        tr.instant("inner", x=1)
    tr.close_spill()
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == to_jsonl(tr)


def test_null_tracer_has_ring_interface():
    from repro.obs.trace import NULL_TRACER
    assert NULL_TRACER.dropped == 0
    assert NULL_TRACER.spilled == 0
    NULL_TRACER.flush()
    NULL_TRACER.close_spill()
