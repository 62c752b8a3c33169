"""Deterministic discrete-event simulation kernel.

A compact, dependency-free engine in the spirit of SimPy: generator-based
processes scheduled on a calendar queue
(:class:`~repro.sim.calendar.CalendarQueue` — one O(1)-append bucket per
distinct fire time, so simultaneous timeouts coalesce, and a heap of
those times) with a simulated clock.  All higher layers (network, agents, instruments, data
fabric) are built on these primitives, which keeps every AISLE
experiment reproducible event-for-event from a single seed.

Public surface:

- :class:`~repro.sim.kernel.Simulator` — the event loop and clock.
- :class:`~repro.sim.calendar.CalendarQueue` — the scheduling structure.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`, :class:`~repro.sim.events.AnyOf`.
- :class:`~repro.sim.process.Process`, :class:`~repro.sim.process.Interrupt`.
- :class:`~repro.sim.resources.Resource`, :class:`~repro.sim.resources.Store`.
- :class:`~repro.sim.rng.RngRegistry` — named deterministic random streams.
"""

from repro.sim.calendar import CalendarQueue
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.ids import IdSequencer, ambient_ids, next_id, next_label
from repro.sim.kernel import Simulator, StopSimulation
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "CalendarQueue",
    "Event",
    "IdSequencer",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
    "ambient_ids",
    "next_id",
    "next_label",
]
