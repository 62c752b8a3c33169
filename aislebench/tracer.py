"""Span tracer for the benchmark's traced run.

:class:`SpanTracer` patches the public entry points of each
``repro.<package>`` layer with span-recording wrappers, in this process
only, and undoes every patch on :meth:`SpanTracer.uninstall`.

- A span records its function (hence its layer), start, end and parent
  span; spans of one unit are contiguous, so the unit is the range its
  root span opens.  Spans stay in memory (flat ``array`` columns) until
  :meth:`SpanTracer.write` dumps them once, when the run ends.
- Generator functions are timed per resume: the wrapper returns a
  :class:`GeneratorProxy` that forwards ``send``, ``throw`` and ``close``
  (and the generator's return value, carried by ``StopIteration``) and
  opens one span per resume.
- A span's self time is its duration minus the time its child spans
  cover.  Unwrapped code falls to the enclosing span, and every unit runs
  under one ``bench`` root span, so per-layer self times sum, by
  construction and in integer nanoseconds, to the traced wall time.
  :meth:`SpanTracer.misnested` checks what can go wrong: every span is
  closed and lies inside its parent's interval.
- A call is counted once per entry into a group (layer plus method name):
  ``super()`` chains and shard fan-outs inside the same group are one call.

Wrappers record nothing while the tracer is inactive, so worlds can be
built after :meth:`SpanTracer.install` (generators created during
construction are proxied and traced once the run phase resumes them).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Iterable, Optional

import numpy as np

#: Layers in report order: the ``repro`` packages on the timed path, then
#: the benchmark's own load processes and tracer.
LAYERS = ("labsci", "methods", "agents", "core", "instruments", "data",
          "net", "comm", "security", "resilience", "service", "sim", "obs",
          "bench")

ROOT = "bench.run_phase"


def entry_points(bench: Iterable[tuple[Any, str]] = ()
                 ) -> list[tuple[str, Any, tuple[str, ...]]]:
    """The layers' public entry points as (layer, owner, names) rows.

    Classes are patched together with every subclass that overrides a
    name; modules by rebinding the function wherever another ``repro``
    module imported it.  ``bench`` lists (owner, name) pairs of the
    benchmark's own load processes, traced as the ``bench`` layer.
    """
    from repro.agents.evaluator import EvaluatorAgent
    from repro.agents.executor import ExecutorAgent
    from repro.agents.planner import PlannerAgent
    from repro.comm import serialization
    from repro.comm.bus import Broker, MessageBus
    from repro.comm.rpc import RpcClient, RpcServer
    from repro.core.knowledge import KnowledgeBase
    from repro.core.orchestrator import HierarchicalOrchestrator
    from repro.core.verification import VerificationStack
    from repro.data.mesh import DataMeshNode, DiscoveryIndex, FederatedDataMesh
    from repro.data.provenance import ProvenanceGraph
    from repro.data.shard import ShardedDiscoveryIndex
    from repro.instruments.hal import HardwareAbstractionLayer
    from repro.instruments.spectrometer import PLSpectrometer
    from repro.labsci.landscapes import Landscape, ParameterSpace
    from repro.methods.baselines import AskTellOptimizer
    from repro.methods.gp import GaussianProcess
    from repro.net.transport import Network
    from repro.obs.metrics import Histogram, MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.resilience import executor
    from repro.security.zerotrust import ZeroTrustGateway
    from repro.service.loadgen import LoadGenerator
    from repro.service.scheduler import FairShareScheduler
    from repro.service.service import CampaignService
    from repro.sim.kernel import Simulator

    return [
        ("sim", Simulator, ("run",)),
        ("net", Network, ("send", "route", "sample_delay")),
        ("comm", MessageBus, ("publish", "consume")),
        ("comm", Broker, ("route",)),
        ("comm", RpcClient, ("call", "_attempt")),
        ("comm", RpcServer, ("dispatch",)),
        ("comm", serialization, ("estimate_size",)),
        ("security", ZeroTrustGateway, ("verify", "verify_resource")),
        ("resilience", executor, ("resilient_call",)),
        ("agents", PlannerAgent, ("next_plan", "repair_plan")),
        ("agents", ExecutorAgent, ("execute",)),
        ("agents", EvaluatorAgent, ("evaluate",)),
        ("core", HierarchicalOrchestrator, ("run_campaign",)),
        ("core", VerificationStack, ("verify",)),
        ("core", KnowledgeBase, ("sync", "publish")),
        ("methods", AskTellOptimizer, ("ask", "tell", "absorb")),
        ("methods", GaussianProcess,
         ("observe", "predict", "fit", "fit_hyperparameters")),
        ("labsci", ParameterSpace, ("sample", "sample_batch")),
        ("labsci", Landscape, ("evaluate", "evaluate_batch")),
        ("instruments", HardwareAbstractionLayer, ("execute",)),
        ("instruments", PLSpectrometer, ("measure",)),
        ("data", DataMeshNode, ("ingest", "fetch")),
        ("data", FederatedDataMesh, ("discover", "fetch")),
        ("data", DiscoveryIndex, ("publish", "query", "get")),
        ("data", ShardedDiscoveryIndex, ("publish", "query", "get")),
        ("data", ProvenanceGraph,
         ("entity", "activity", "agent", "used", "was_generated_by",
          "was_associated_with", "was_derived_from", "was_attributed_to")),
        ("service", CampaignService, ("submit", "_slot_loop", "_run_one")),
        ("service", FairShareScheduler, ("enqueue", "select")),
        ("service", LoadGenerator, ("_closed_loop", "_open_loop")),
        ("obs", MetricsRegistry, ("counter", "gauge", "histogram")),
        ("obs", Histogram, ("observe",)),
        ("obs", Tracer, ("span", "instant")),
        *(("bench", owner, (name,)) for owner, name in bench),
    ]


class GeneratorProxy:
    """Times each resume of a wrapped generator as one span.

    Forwards ``send``/``throw``/``close``; ``StopIteration`` (and with it
    the generator's return value) and every other exception propagate
    unchanged, so ``yield from proxy`` and ``sim.process(proxy)`` behave
    exactly as with the bare generator.
    """

    __slots__ = ("_gen", "_tracer", "_fid", "_group", "_counted")

    def __init__(self, gen, tracer: "SpanTracer", fid: int,
                 group: str) -> None:
        self._gen = gen
        self._tracer = tracer
        self._fid = fid
        self._group = group
        self._counted = False

    @property
    def __name__(self) -> str:  # what Process uses to name itself
        return self._gen.__name__

    def __iter__(self) -> "GeneratorProxy":
        return self

    def __next__(self) -> Any:
        return self._resume(self._gen.send, None)

    def send(self, value: Any) -> Any:
        return self._resume(self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._resume(self._gen.throw, *args)

    def close(self) -> None:
        return self._resume(self._gen.close)

    def _resume(self, method: Callable, *args: Any) -> Any:
        tracer = self._tracer
        if not tracer.active:
            return method(*args)
        if not self._counted:
            self._counted = True
            if tracer.groups[-1] != self._group:
                tracer.calls[self._fid] += 1
        idx = tracer.open_span(self._fid, self._group)
        try:
            return method(*args)
        finally:
            tracer.close_span(idx)


class SpanTracer:
    """Span-recording patches over the layers' public entry points."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        self.active = False
        #: Per function: (layer, qualified name, group).
        self.funcs: list[tuple[str, str, str]] = []
        self.calls: list[int] = []
        self.starts = array("q")
        self.ends = array("q")
        self.func_ids = array("i")
        self.parents = array("i")
        self.stack: list[int] = [-1]
        self.groups: list[Optional[str]] = [None]
        self.roots: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._root_fid = self._register("bench", ROOT, ROOT)
        # Input properties the roadmap's caches depend on (see hooks).
        self.points = 0
        self.route_pairs_distinct = 0
        self.sizes_repeated = 0
        self._pairs: set = set()
        self._sized: dict[int, Any] = {}
        self._hooks = {"labsci.sample": self._note_sample,
                       "labsci.sample_batch": self._note_sample_batch,
                       "net.route": self._note_route,
                       "comm.estimate_size": self._note_size}

    # -- spans -------------------------------------------------------------

    def _register(self, layer: str, qualname: str, group: str) -> int:
        self.funcs.append((layer, qualname, group))
        self.calls.append(0)
        return len(self.funcs) - 1

    def open_span(self, fid: int, group: Optional[str]) -> int:
        idx = len(self.starts)
        self.parents.append(self.stack[-1])
        self.func_ids.append(fid)
        self.ends.append(0)
        self.stack.append(idx)
        self.groups.append(group)
        self.starts.append(self.clock())
        return idx

    def close_span(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()
        self.groups.pop()

    def begin_unit(self) -> None:
        """Open the unit's root span and start recording."""
        if self.active or self.stack != [-1]:
            raise RuntimeError("begin_unit inside an open unit")
        self._pairs.clear()
        self._sized.clear()
        self.roots.append(self.open_span(self._root_fid, None))
        self.active = True

    def end_unit(self) -> None:
        self.active = False
        self.close_span(self.roots[-1])
        if self.stack != [-1]:
            raise RuntimeError(f"unbalanced spans at unit end: {self.stack}")
        self.route_pairs_distinct += len(self._pairs)
        self._pairs.clear()
        self._sized.clear()

    # -- input-property hooks (outermost calls only) -------------------------

    def _note_sample(self, args: tuple, kwargs: dict) -> None:
        self.points += 1

    def _note_sample_batch(self, args: tuple, kwargs: dict) -> None:
        self.points += int(args[2] if len(args) > 2 else kwargs["n"])

    def _note_route(self, args: tuple, kwargs: dict) -> None:
        self._pairs.add(args[1:3] if len(args) > 2
                        else (kwargs["src"], kwargs["dst"]))

    def _note_size(self, args: tuple, kwargs: dict) -> None:
        obj = args[0] if args else kwargs["obj"]
        if id(obj) in self._sized:
            self.sizes_repeated += 1
        else:
            self._sized[id(obj)] = obj  # keep it alive: pin the id

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, qualname: str) -> Callable:
        group = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
        fid = self._register(layer, qualname, group)
        tracer = self
        calls = self.calls
        groups = self.groups
        hook = self._hooks.get(group)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Any:
                return GeneratorProxy(fn(*args, **kwargs), tracer, fid, group)
            return generator_wrapper

        @functools.wraps(fn)
        def call_wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            if groups[-1] != group:
                calls[fid] += 1
                if hook is not None:
                    hook(args, kwargs)
            idx = tracer.open_span(fid, group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close_span(idx)
        return call_wrapper

    def _patch(self, owner: Any, name: str, original: Any,
               replacement: Any) -> None:
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original, replacement))

    def install(self, table: Iterable[tuple[str, Any, tuple[str, ...]]]
                ) -> "SpanTracer":
        """Wrap every (layer, owner, names) row of ``table``, typically
        :func:`entry_points`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, owner, names in table:
            for name in names:
                if inspect.ismodule(owner):
                    self._patch_function(layer, owner, name)
                else:
                    self._patch_methods(layer, owner, name)
        return self

    def _patch_methods(self, layer: str, cls: type, name: str) -> None:
        seen = False
        for klass in [cls, *_all_subclasses(cls)]:
            original = klass.__dict__.get(name)
            if not inspect.isfunction(original):
                continue
            seen = True
            self._patch(klass, name, original, self._wrap(
                original, layer, f"{klass.__name__}.{name}"))
        if not seen:
            raise AttributeError(f"no method {cls.__name__}.{name} to trace")

    def _patch_function(self, layer: str, home: Any, name: str) -> None:
        """Rebind ``home.name`` in every other ``repro`` module holding it.

        The home module keeps the original, so a function's recursion
        (``estimate_size`` walking a payload) stays inside one span.
        """
        original = getattr(home, name)
        bound = False
        for mod_name, module in sorted(sys.modules.items()):
            if (module is home or not mod_name.startswith("repro")
                    or getattr(module, name, None) is not original):
                continue
            # One wrapper per binding, so calls are counted per importer.
            self._patch(module, name, original, self._wrap(
                original, layer, f"{mod_name}.{name}"))
            bound = True
        if not bound:
            raise AttributeError(f"no module imports {home.__name__}.{name}")

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        self.active = False
        while self._patches:
            owner, name, original, _ = self._patches.pop()
            setattr(owner, name, original)

    def patched(self) -> list[tuple[Any, str, Any, Any]]:
        return list(self._patches)

    # -- analysis ------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """The span store as numpy views (no copy)."""
        return {"start": np.frombuffer(self.starts, dtype=np.int64),
                "end": np.frombuffer(self.ends, dtype=np.int64),
                "func": np.frombuffer(self.func_ids, dtype=np.int32),
                "parent": np.frombuffer(self.parents, dtype=np.int32)}

    def self_times(self) -> np.ndarray:
        """Per-span self time in ns: duration minus child durations."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        covered = np.zeros(dur.size, dtype=np.int64)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def misnested(self) -> int:
        """Spans left open, or not inside their parent's interval.

        Self times sum to the root spans by construction, whatever was
        recorded; this is the check that a broken wrapper or proxy fails.
        """
        cols = self.columns()
        start, end, parent = cols["start"], cols["end"], cols["parent"]
        child = parent >= 0
        up = parent[child]
        bad = end < start
        bad[child] |= (start[child] < start[up]) | (end[child] > end[up])
        return int(bad.sum())

    def summary(self) -> dict[str, Any]:
        """Per-layer self time and calls, plus the nesting check."""
        cols = self.columns()
        self_ns = self.self_times()
        layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        func_layer = np.asarray([layer_index[f[0]] for f in self.funcs],
                                dtype=np.intp)
        span_layer = func_layer[cols["func"]]
        layer_ns = np.zeros(len(LAYERS), dtype=np.int64)
        np.add.at(layer_ns, span_layer, self_ns)
        roots = np.asarray(self.roots, dtype=np.intp)
        wall_ns = int((cols["end"][roots] - cols["start"][roots]).sum())
        calls = dict.fromkeys(LAYERS, 0)
        for (layer, _, _), n in zip(self.funcs, self.calls):
            calls[layer] += n
        return {
            "spans": int(self_ns.size),
            "wall_ns": wall_ns,
            "layer_self_ns": {layer: int(layer_ns[i])
                              for i, layer in enumerate(LAYERS)},
            "layer_calls": calls,
            "misnested": self.misnested(),
        }

    def group_calls(self, group: str) -> int:
        return sum(n for (_, _, g), n in zip(self.funcs, self.calls)
                   if g == group)

    def _in_group(self, group: str) -> np.ndarray:
        """Per span: whether its function belongs to ``group``."""
        in_group = np.asarray([f[2] == group for f in self.funcs])
        return in_group[self.columns()["func"]]

    def group_self_ns(self, group: str) -> int:
        """Summed self time of a group's spans."""
        return int(self.self_times()[self._in_group(group)].sum())

    def group_durations_ns(self, group: str) -> np.ndarray:
        """Inclusive durations of a group's outermost spans (a span whose
        parent is in the same group is part of that call)."""
        cols = self.columns()
        mine = self._in_group(group)
        parent = cols["parent"]
        parent_mine = np.zeros_like(mine)
        parent_mine[parent >= 0] = mine[parent[parent >= 0]]
        return (cols["end"] - cols["start"])[mine & ~parent_mine]

    def write(self, path: str) -> None:
        """Dump every span once, with its function table, as ``.npz``."""
        np.savez(path, **self.columns(),
                 roots=np.asarray(self.roots, dtype=np.int64),
                 func_layer=np.asarray([f[0] for f in self.funcs]),
                 func_name=np.asarray([f[1] for f in self.funcs]))


def _all_subclasses(cls: type) -> list[type]:
    out: list[type] = []
    stack = list(cls.__subclasses__())
    while stack:
        klass = stack.pop()
        if klass not in out:
            out.append(klass)
            stack.extend(klass.__subclasses__())
    return sorted(out, key=lambda k: (k.__module__, k.__qualname__))
