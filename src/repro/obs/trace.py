"""Deterministic structured tracing over the simulated clock.

A :class:`Tracer` records :class:`TraceEvent`\\ s stamped with *simulation*
time and a monotonically increasing sequence number — never wall clock,
never ``id()`` — so two runs from the same seed export byte-identical
traces (the determinism contract in DESIGN.md extends to observability).

Spans nest: the orchestrator wraps each campaign, experiment, and
plan/verify/execute/evaluate phase in one, and the export replays a
campaign as a span tree.  Each simulation process keeps its own stack of
open spans (code outside any process shares one world-level stack), so
campaigns running at once under one tracer each get a tree of their own.
The default tracer everywhere is the no-op :data:`NULL_TRACER`, so
untraced runs pay only a handful of attribute checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.export import TraceSpillWriter
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process


@dataclass(frozen=True)
class TraceEvent:
    """One structured record on a run's timeline.

    Attributes
    ----------
    seq:
        Monotonic sequence number (total order, breaks clock ties).
    t:
        Simulation time the event was emitted.
    kind:
        ``"span-start"``, ``"span-end"``, or ``"instant"``.
    name:
        What happened (``"campaign"``, ``"plan"``, ``"plan-skipped"``, ...).
    span:
        Id of the span this event belongs to (``None`` outside any span).
    parent:
        Id of the enclosing span, for tree reconstruction.
    attrs:
        Free-form JSON-serializable details.
    """

    seq: int
    t: float
    kind: str
    name: str
    span: Optional[int] = None
    parent: Optional[int] = None
    attrs: dict[str, Any] = field(default_factory=dict)


class _Span:
    """Context manager recording span-start/span-end around a block.

    Works inside generator-based processes: simulation time advancing
    across ``yield from`` within the block lands in the span's duration.
    """

    __slots__ = ("_tracer", "span_id", "name", "_t0", "_owner")

    def __init__(self, tracer: "Tracer", span_id: int, name: str,
                 owner: "Optional[Process]") -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self._t0 = 0.0
        #: The process whose stack the span was opened on.
        self._owner = owner

    def __enter__(self) -> "_Span":
        self._t0 = self._tracer.sim.now
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        attrs: dict[str, Any] = {"duration": tracer.sim.now - self._t0}
        if exc_type is not None:
            attrs["error"] = exc_type.__name__
        tracer._end_span(self, attrs)
        return False


class Tracer:
    """Collects a deterministic event stream for one simulated world.

    Parameters
    ----------
    sim:
        The kernel whose clock stamps every event.
    run_id:
        Caller-chosen identifier embedded in exports (pass something
        seed-derived; wall-clock-derived ids would break determinism).
    max_events:
        ``None`` (default) keeps every event in memory — the historical
        behaviour.  A positive value bounds ``events`` to a ring holding
        the most recent ``max_events``: older events either stream to
        ``spill`` or are dropped (counted, never silent).
    spill:
        Incremental sink for emitted events — a
        :class:`~repro.obs.export.TraceSpillWriter`, a path string (a
        writer is created lazily), or any object with a
        ``write(event)`` method.  With a spill attached the full trace
        survives on disk even when the in-memory ring truncates.
    metrics:
        Optional registry; ring evictions increment
        ``obs.dropped_events`` (no spill) or ``obs.spilled_events``
        (spill attached), so truncation is visible in every snapshot.
    """

    def __init__(self, sim: "Simulator", run_id: str = "run", *,
                 max_events: Optional[int] = None,
                 spill: "TraceSpillWriter | str | None" = None,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.sim = sim
        self.run_id = run_id
        if isinstance(spill, str):
            from repro.obs.export import TraceSpillWriter
            spill = TraceSpillWriter(spill)
        self.spill = spill
        self.max_events = max_events
        self.events: "list[TraceEvent] | deque[TraceEvent]" = (
            [] if max_events is None else deque())
        self.dropped = 0
        self.spilled = 0
        self.metrics = metrics
        self._seq = 0
        self._next_span = 1
        #: Open span ids per simulation process, innermost last; ``None``
        #: keys the world-level stack.  A process's entry goes when its
        #: last open span closes.
        self._stacks: dict[Optional["Process"], list[int]] = {}

    @property
    def current_span(self) -> Optional[int]:
        stack = self._stacks.get(self.sim.active_process)
        return stack[-1] if stack else None

    # -- emission ----------------------------------------------------------

    def _emit(self, kind: str, name: str, span: Optional[int],
              parent: Optional[int], attrs: dict[str, Any]) -> TraceEvent:
        ev = TraceEvent(seq=self._seq, t=self.sim.now, kind=kind, name=name,
                        span=span, parent=parent, attrs=attrs)
        self._seq += 1
        if self.spill is not None:
            self.spill.write(ev)
            self.spilled += 1
            if self.metrics is not None:
                self.metrics.counter("obs.spilled_events").inc()
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.events.popleft()
            if self.spill is None:
                # The event is gone for good — count it, loudly.
                self.dropped += 1
                if self.metrics is not None:
                    self.metrics.counter("obs.dropped_events").inc()
        self.events.append(ev)
        return ev

    def instant(self, name: str, /, **attrs: Any) -> TraceEvent:
        """Record a point event inside the current span (if any)."""
        stack = self._stacks.get(self.sim.active_process)
        if not stack:
            return self._emit("instant", name, None, None, attrs)
        parent = stack[-2] if len(stack) > 1 else None
        return self._emit("instant", name, stack[-1], parent, attrs)

    def span(self, name: str, /, **attrs: Any) -> _Span:
        """Open a nested span: ``with tracer.span("plan"): ...``."""
        owner = self.sim.active_process
        stack = self._stacks.setdefault(owner, [])
        span_id = self._next_span
        self._next_span += 1
        self._emit("span-start", name, span_id, stack[-1] if stack else None,
                   attrs)
        stack.append(span_id)
        return _Span(self, span_id, name, owner)

    def _end_span(self, span: _Span, attrs: dict[str, Any]) -> None:
        stack = self._stacks.get(span._owner, [])
        # Close any dangling children first (a break/raise mid-span).
        while stack and stack[-1] != span.span_id:
            stack.pop()
        if stack:
            stack.pop()
        if not stack:
            self._stacks.pop(span._owner, None)
        self._emit("span-end", span.name, span.span_id,
                   stack[-1] if stack else None, attrs)

    # -- spill management --------------------------------------------------

    def flush(self) -> None:
        """Flush (and leave open) the spill sink, if any."""
        if self.spill is not None and hasattr(self.spill, "flush"):
            self.spill.flush()

    def close_spill(self) -> None:
        """Flush and close the spill sink; the tracer stays usable in
        memory (a later emit with a closed writer reopens nothing —
        pass a fresh spill instead)."""
        if self.spill is not None:
            if hasattr(self.spill, "close"):
                self.spill.close()
            self.spill = None

    # -- replay helpers ----------------------------------------------------

    def span_tree(self) -> list[dict[str, Any]]:
        """Reconstruct the nested span structure from the event stream.

        Returns the forest of root spans; each node carries ``name``,
        ``start``, ``end``, ``duration``, ``attrs``, and ``children``.
        """
        nodes: dict[int, dict[str, Any]] = {}
        roots: list[dict[str, Any]] = []
        for ev in self.events:
            if ev.kind == "span-start":
                node = {"name": ev.name, "span": ev.span, "start": ev.t,
                        "end": None, "duration": None, "attrs": dict(ev.attrs),
                        "children": []}
                nodes[ev.span] = node
                parent = nodes.get(ev.parent)
                (parent["children"] if parent else roots).append(node)
            elif ev.kind == "span-end" and ev.span in nodes:
                node = nodes[ev.span]
                node["end"] = ev.t
                node["duration"] = ev.attrs.get("duration", ev.t - node["start"])
                node["attrs"].update(
                    {k: v for k, v in ev.attrs.items() if k != "duration"})
        return roots


class _NullSpan:
    """Reusable no-op span so untraced code pays one attribute lookup."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing tracer with the :class:`Tracer` interface."""

    __slots__ = ()

    events: list[TraceEvent] = []
    dropped: int = 0
    spilled: int = 0

    def flush(self) -> None:
        return None

    def close_spill(self) -> None:
        return None

    @property
    def current_span(self) -> Optional[int]:
        return None

    def instant(self, name: str, /, **attrs: Any) -> None:
        return None

    def span(self, name: str, /, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def span_tree(self) -> list[dict[str, Any]]:
        return []


#: Shared default tracer: observability off, overhead ~zero.
NULL_TRACER = NullTracer()
