"""Tests of the benchmark's span tracer.

Run with ``python3 -m pytest aislebench/tests -q`` from the repository root.
"""

from __future__ import annotations

import inspect
import itertools
import sys

import pytest

import tracer as tracing
import workloads
from repro.core.campaign import CampaignSpec
from repro.service.handle import CampaignStatus
from repro.service.loadgen import synthetic_runner
from repro.service.service import CampaignService, FacilitySlot
from repro.service.tenants import TenantQuota
from repro.sim.kernel import Simulator


class Toy:
    def outer(self, inner, n):
        return sum(inner.work(i) for i in range(n))

    def stream(self, log):
        try:
            got = yield "first"
            log.append(("sent", got))
            try:
                yield "second"
            except ValueError as exc:
                log.append(("thrown", str(exc)))
            yield "third"
        finally:
            log.append("finally")
        return "result"


class Inner:
    def work(self, i):
        return 2 * i


TOY_TABLE = [("core", Toy, ("outer", "stream")), ("net", Inner, ("work",))]


@pytest.fixture
def toy_tracer():
    tracer = tracing.SpanTracer().install(TOY_TABLE)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _spans_of(tracer, qualname):
    fid = [f[1] for f in tracer.funcs].index(qualname)
    return int((tracer.columns()["func"] == fid).sum())


def test_proxy_forwards_send_throw_and_return_value(toy_tracer):
    log = []

    def caller():
        return (yield from Toy().stream(log))

    gen = caller()
    toy_tracer.begin_unit()
    assert next(gen) == "first"
    assert gen.send("x") == "second"
    assert gen.throw(ValueError("boom")) == "third"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    toy_tracer.end_unit()
    assert stop.value.value == "result"
    assert log == [("sent", "x"), ("thrown", "boom"), "finally"]
    assert _spans_of(toy_tracer, "Toy.stream") == 4  # one per resume
    assert toy_tracer.summary()["layer_calls"]["core"] == 1


def test_proxy_forwards_close_and_uncaught_throw(toy_tracer):
    log = []
    proxy = Toy().stream(log)
    assert isinstance(proxy, tracing.GeneratorProxy)
    assert proxy.__name__ == "stream"
    toy_tracer.begin_unit()
    assert next(proxy) == "first"
    proxy.close()
    assert log == ["finally"]
    other = Toy().stream([])
    next(other)
    with pytest.raises(KeyError):
        other.throw(KeyError("unhandled"))
    toy_tracer.end_unit()
    assert toy_tracer.summary()["misnested"] == 0


def test_interrupt_into_wrapped_process_cancels_campaign():
    """The service cancel path throws ``Interrupt`` into a running
    campaign process whose generator is a traced ``_run_one`` proxy."""
    tracer = tracing.SpanTracer().install(tracing.entry_points())
    try:
        sim = Simulator()
        runner = synthetic_runner(sim, seed=1)
        service = CampaignService(
            sim, [FacilitySlot(f"slot-{i}", runner) for i in range(2)],
            default_quota=TenantQuota())
        keep = service.submit("lab", CampaignSpec("keep", "objective",
                                                  max_experiments=2))
        drop = service.submit("lab", CampaignSpec("drop", "objective",
                                                  max_experiments=2))

        def cancel_later():
            yield sim.timeout(10.0)
            assert drop.status is CampaignStatus.RUNNING
            drop.cancel()

        sim.process(cancel_later())
        tracer.begin_unit()
        sim.run()
        tracer.end_unit()
    finally:
        tracer.uninstall()
    assert keep.status is CampaignStatus.COMPLETED
    assert drop.status is CampaignStatus.CANCELLED
    assert _spans_of(tracer, "CampaignService._run_one") >= 4
    assert tracer.summary()["misnested"] == 0


def test_self_times_sum_exactly_to_the_root():
    ticks = itertools.count(0, 7)  # every clock read advances 7 ns
    tracer = tracing.SpanTracer(clock=lambda: next(ticks))
    tracer.install(TOY_TABLE)
    try:
        for n in (3, 2):
            tracer.begin_unit()
            assert Toy().outer(Inner(), n) == n * (n - 1)
            tracer.end_unit()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["misnested"] == 0
    assert sum(summary["layer_self_ns"].values()) == summary["wall_ns"]
    assert (tracer.self_times() >= 0).all()
    # A leaf span reads the clock twice in a row: 7 ns each, five leaves.
    assert summary["layer_self_ns"]["net"] == 5 * 7
    assert summary["layer_calls"]["core"] == 2
    assert summary["layer_calls"]["net"] == 5


def _bare_tracer():
    ticks = itertools.count(0, 7)
    tracer = tracing.SpanTracer(clock=lambda: next(ticks))
    root = tracer.open_span(0, None)
    tracer.roots.append(root)
    return tracer, root, tracer._register("net", "Inner.work", "net.work")


def test_nesting_check_catches_open_and_escaping_spans():
    tracer, root, fid = _bare_tracer()
    tracer.open_span(fid, "net.work")    # never closed
    tracer.ends[root] = tracer.clock()
    assert tracer.misnested() == 1

    tracer, root, fid = _bare_tracer()
    child = tracer.open_span(fid, "net.work")
    tracer.ends[root] = tracer.clock()   # the parent ends first ...
    tracer.ends[child] = tracer.clock()  # ... so its child escapes it
    assert tracer.misnested() == 1
    # Self times still sum to the root span: the sum checks nothing.
    assert tracer.self_times().sum() == tracer.summary()["wall_ns"]


def _bindings():
    """Identity snapshot of every attribute of every ``repro`` module and
    of the classes they define."""
    snap = {}
    for mod_name, module in sorted(sys.modules.items()):
        if not (mod_name.startswith("repro") or mod_name == "workloads"):
            continue
        for name, value in list(vars(module).items()):
            snap[(mod_name, name)] = id(value)
            if inspect.isclass(value) and value.__module__ == mod_name:
                for attr, member in list(vars(value).items()):
                    snap[(mod_name, name, attr)] = id(member)
    return snap


#: Entry points the traced run must reach, by qualified name.
#: ``Landscape.evaluate_batch`` is wrapped too, but no workload reaches it
#: (the campaign's flow reactor synthesizes one condition at a time).
REQUIRED = (
    "Simulator.run", "Network.send", "Network.route", "Network.sample_delay",
    "MessageBus.publish", "MessageBus.consume", "Broker.route",
    "RpcClient.call", "RpcServer.dispatch",
    "repro.comm.rpc.estimate_size", "repro.comm.message.estimate_size",
    "repro.data.record.estimate_size", "repro.comm.rpc.resilient_call",
    "ZeroTrustGateway.verify",
    "PlannerAgent.next_plan", "PlannerAgent.repair_plan",
    "ExecutorAgent.execute", "EvaluatorAgent.evaluate",
    "HierarchicalOrchestrator.run_campaign", "VerificationStack.verify",
    "KnowledgeBase.sync", "KnowledgeBase.publish",
    "NestedBayesianOptimizer.ask", "NestedBayesianOptimizer.tell",
    "NestedBayesianOptimizer.absorb",
    "GaussianProcess.observe", "GaussianProcess.predict",
    "GaussianProcess.fit_hyperparameters",
    "ParameterSpace.sample", "ParameterSpace.sample_batch",
    "QuantumDotLandscape.evaluate",
    "HardwareAbstractionLayer.execute", "PLSpectrometer.measure",
    "DataMeshNode.ingest", "FederatedDataMesh.discover",
    "FederatedDataMesh.fetch", "DiscoveryIndex.publish",
    "ShardedDiscoveryIndex.publish", "ShardedDiscoveryIndex.query",
    "ProvenanceGraph.entity", "ProvenanceGraph.activity",
    "ProvenanceGraph.agent", "ProvenanceGraph.used",
    "ProvenanceGraph.was_generated_by", "ProvenanceGraph.was_associated_with",
    "ProvenanceGraph.was_derived_from", "ProvenanceGraph.was_attributed_to",
    "CampaignService.submit", "FairShareScheduler.enqueue",
    "FairShareScheduler.select",
    "MetricsRegistry.counter", "MetricsRegistry.gauge",
    "MetricsRegistry.histogram", "Histogram.observe",
    "Tracer.span", "Tracer.instant",
    "MeshWorld.drive", "CoordinationWorld.agent",
    "CoordinationWorld.publisher", "CoordinationWorld.consumer",
)


@pytest.fixture(scope="module")
def all_workloads():
    """One traced unit of every workload; per-workload layer calls."""
    before = _bindings()
    tracer = tracing.SpanTracer()
    tracer.install(tracing.entry_points(workloads.BENCH_ENTRY_POINTS))
    per_workload = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            world = workload.build(1)
            calls_before = list(tracer.calls)
            tracer.begin_unit()
            outcome = workload.run(world)
            tracer.end_unit()
            assert workload.check(world, outcome) == []
            layer_calls = dict.fromkeys(tracing.LAYERS, 0)
            for (layer, _, _), now, then in zip(tracer.funcs, tracer.calls,
                                                calls_before):
                layer_calls[layer] += now - then
            per_workload[name] = layer_calls
    finally:
        tracer.uninstall()
    return tracer, per_workload, before, _bindings()


def test_every_listed_entry_point_records_a_call(all_workloads):
    tracer = all_workloads[0]
    calls = {}
    for (_, qualname, _), n in zip(tracer.funcs, tracer.calls):
        calls[qualname] = calls.get(qualname, 0) + n
    missing = [name for name in REQUIRED if not calls.get(name)]
    assert missing == []


def test_real_workloads_sum_exactly(all_workloads):
    summary = all_workloads[0].summary()
    assert summary["misnested"] == 0
    assert sum(summary["layer_self_ns"].values()) == summary["wall_ns"]


def test_layers_outside_a_workload_record_no_calls(all_workloads):
    from run import NO_CALLS
    per_workload = all_workloads[1]
    for name, layers in NO_CALLS.items():
        assert {layer: per_workload[name][layer] for layer in layers} == \
            dict.fromkeys(layers, 0), name


def test_uninstall_undoes_every_patch(all_workloads):
    _, _, before, after = all_workloads
    assert after == before


def test_install_patches_then_restores():
    tracer = tracing.SpanTracer().install(
        tracing.entry_points(workloads.BENCH_ENTRY_POINTS))
    patched = tracer.patched()
    try:
        assert all(getattr(owner, name) is wrapper
                   for owner, name, _, wrapper in patched)
    finally:
        tracer.uninstall()
    assert tracer.patched() == []
    assert all(getattr(owner, name) is original
               for owner, name, original, _ in patched)
