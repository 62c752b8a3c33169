"""The discrete-event simulation loop.

The :class:`Simulator` owns the simulated clock and a
:class:`~repro.sim.calendar.CalendarQueue` of scheduled events: one
O(1)-append list per distinct fire time (simultaneous timeouts coalesce
into one bucket) and a heap of those times.  Ties at the same timestamp
break on push order, so two runs with the same seed are identical
event-for-event (a requirement stated in DESIGN.md for every AISLE
experiment) — and byte-identical to the retired binary-heap kernel:
tier-1 tests (``tests/sim/test_calendar.py``) pin that kernel's step
counts, end times and decision digests on fixed programs.

:meth:`Simulator.run` is the hot loop of every experiment, so it drains
bucket batches inline instead of calling :meth:`step` per event: the
clock advances once per bucket, locals are hoisted, and the hook checks
are fused into the drain.  :meth:`step` remains the sanctioned way to
process exactly one event.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.calendar import CalendarQueue
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.ids import _AMBIENT, IdSequencer, bind_ambient
from repro.sim.process import Process


class _CallbackEvent(Event):
    """Event scheduled *untriggered* by :meth:`Simulator.schedule_callback`.

    It resolves (ok/value set) only when the kernel pops it, so callbacks
    appended between creation and firing observe a consistent
    ``triggered == False`` until the moment it actually fires.
    """

    __slots__ = ("_deferred_value",)

    def __init__(self, sim: "Simulator", value: Any) -> None:
        super().__init__(sim)
        self._deferred_value = value

    def _resolve(self) -> None:
        self._ok = True
        self._value = self._deferred_value


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""

    @classmethod
    def callback(cls, event: Event) -> None:
        if event.ok:
            raise cls(event.value)
        raise event.value


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


_INFINITY = float("inf")

# Hoisted allocator for the Simulator.timeout fast path: skips the
# type-call machinery (one C call instead of type.__call__ -> __init__).
_new_timeout = Timeout.__new__


class Simulator:
    """Discrete-event simulator with a floating-point clock.

    Parameters
    ----------
    start:
        Initial simulation time (default 0.0).  Units are abstract; AISLE
        layers interpret them as **seconds** throughout.

    Examples
    --------
    >>> sim = Simulator()
    >>> def proc(sim):
    ...     yield sim.timeout(5.0)
    ...     return "done"
    >>> p = sim.process(proc(sim))
    >>> sim.run()
    >>> sim.now, p.value
    (5.0, 'done')
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue = CalendarQueue()
        self._active_process: Optional[Process] = None
        # Per-world id streams (see repro.sim.ids): ids allocated by this
        # world are a function of the world alone, so two same-seed worlds
        # in one process mint identical identifiers.  The sequencer also
        # becomes *ambient* while this world is live, covering value
        # objects constructed without an explicit handle.
        self.ids = IdSequencer()
        bind_ambient(self.ids)
        # Observability hooks (repro.obs): called as hook(time, event).
        # ``None`` (the default) keeps untraced runs on the fast path.
        self.step_hook: Optional[Callable[[float, Event], Any]] = None
        self.schedule_hook: Optional[Callable[[float, Event], Any]] = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now.

        This is the kernel's hottest allocation site (every instrument
        poll, sampling interval, and deadline is a timeout), so the slot
        writes skip ``Timeout.__init__`` and the event goes straight to
        :meth:`CalendarQueue.push`.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        if delay.__class__ is not float:
            delay = float(delay)
        ev = _new_timeout(Timeout)
        ev.sim = self
        ev.callbacks = []
        ev._ok = True
        ev._value = value
        ev._defused = False
        ev.delay = delay
        at = self._now + delay
        self._queue.push(at, ev)
        if self.schedule_hook is not None:
            self.schedule_hook(at, ev)
        return ev

    def process(self, generator: Generator) -> Process:
        """Spawn ``generator`` as a new simulation process."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event that succeeds when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that succeeds when any of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        at = self._now + delay
        self._queue.push(at, event)
        if self.schedule_hook is not None:
            self.schedule_hook(at, event)

    def schedule_callback(
        self, delay: float, fn: Callable[[], Any], value: Any = None
    ) -> Event:
        """Run ``fn`` after ``delay`` time units; returns the trigger event.

        The event stays untriggered until it fires: anyone inspecting (or
        waiting on) it in the meantime sees a consistent pending state.
        """
        ev = _CallbackEvent(self, value)
        ev.callbacks.append(lambda _ev: fn())
        self._schedule(ev, delay)
        return ev

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue.next_time()

    def queue_stats(self) -> dict:
        """Calendar-queue structure counters (pending, coalescing).

        ``far_deferred`` is always 0: the queue has one band, and the key
        stays for readers that export it.
        """
        return self._queue.stats()

    def step(self) -> None:
        """Process exactly one event from the queue."""
        # Inlined bind_ambient: the rebind is skipped when the ambient
        # world is already this one — the common case, where it would
        # otherwise cost a function call per event.
        ids = self.ids
        if _AMBIENT.get() is not ids:
            _AMBIENT.set(ids)
        queue = self._queue
        event = queue.pop_due(_INFINITY)
        if event is None:
            raise EmptySchedule()
        self._now = queue._active_time

        if event._ok is None:
            # Only _CallbackEvent is ever scheduled untriggered: it
            # becomes triggered at the moment it fires, not at creation.
            event._resolve()
        if self.step_hook is not None:
            self.step_hook(self._now, event)

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure: surface it instead of losing it.
            exc = event._value
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            ``float`` — run until the clock reaches that time.
            :class:`Event` — run until that event is processed and return
            its value (raising its exception if it failed).
        """
        stop_at = _INFINITY
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed: nothing to do.
                    if until.ok:
                        return until.value
                    raise until.value
                until.callbacks.append(StopSimulation.callback)
            else:
                stop_at = float(until)
                if stop_at < self._now:
                    raise ValueError(
                        f"until={stop_at} is in the past (now={self._now})")

        # Hot loop, fused: the outer loop fetches the next due bucket
        # (one clock write and one deadline check per *bucket*), the
        # inner loop drains it with plain list indexing (no step() call,
        # no heap op, no tuple unpack per event).  Everything the loop
        # touches more than once is hoisted to a local.
        queue = self._queue
        pop_due = queue.pop_due
        ids = self.ids
        ambient_get = _AMBIENT.get
        ambient_set = _AMBIENT.set
        try:
            while True:
                event = pop_due(stop_at)
                if event is None:
                    break
                now = self._now = queue._active_time
                while True:
                    if ambient_get() is not ids:
                        ambient_set(ids)
                    if event._ok is None:
                        event._resolve()
                    hook = self.step_hook
                    if hook is not None:
                        hook(now, event)
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    # Same-bucket fast path: more events at this exact
                    # time (including ones appended during the drain).
                    # The time guard covers re-entrant step() calls from
                    # callbacks, which may retire or swap the bucket.
                    bucket = queue._active
                    if bucket is None or queue._active_time != now:
                        break
                    i = queue._active_idx
                    if i >= len(bucket):
                        break
                    queue._active_idx = i + 1
                    queue._size -= 1
                    event = bucket[i]
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        if stop_at is not _INFINITY:
            # Advance the clock to the deadline even if the queue drained
            # earlier, so back-to-back run(until=...) calls compose.
            self._now = max(self._now, stop_at)
        if isinstance(until, Event) and not until.triggered:
            raise RuntimeError("simulation ended before the awaited event fired")
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6g} pending={len(self._queue)}>"
