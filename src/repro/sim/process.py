"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` must produce
an :class:`~repro.sim.events.Event`; the process suspends until that event
triggers and resumes with the event's value (or the event's exception is
thrown into the generator).  A process is itself an event that succeeds
with the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, _PENDING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process may catch it and continue; ``cause`` carries an
    arbitrary payload (AISLE uses it for fault injection and preemption).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running simulation process (also usable as an event).

    Notes
    -----
    Do not instantiate directly in normal use; call
    :meth:`Simulator.process`.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick the process off via an immediately-scheduled initialization
        # event so that creation order, not construction stack depth,
        # determines execution order.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init._ok = True
        init._value = None
        sim._schedule(init, 0.0)

    # -- public API ---------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting detaches it from its current target (the target
        event may still fire for other waiters).
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has already terminated")
        if self is self.sim.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        ev = Event(self.sim)
        ev._ok = False
        ev._value = Interrupt(cause)
        ev._defused = True  # delivered into the generator, never "unhandled"
        ev.callbacks.append(self._resume_interrupt)
        self.sim._schedule(ev, 0.0)

    # -- resumption machinery -------------------------------------------------

    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            # The process finished between scheduling and delivery of the
            # interrupt; drop it silently (matches SimPy semantics closely
            # enough for our fault-injection usage).
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Deliver ``event`` and drive the generator to its next yield.

        This is the callback the kernel invokes once per process wakeup;
        the generator's ``send``/``throw`` are bound once per wakeup
        instead of re-read from ``self`` per iteration.
        """
        self._target = None
        sim = self.sim
        prev, sim._active_process = sim._active_process, self
        generator = self._generator
        send = generator.send
        throw = generator.throw
        try:
            while True:
                try:
                    if event._ok:
                        target = send(event._value)
                    else:
                        event._defused = True
                        target = throw(event._value)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    self.fail(exc)
                    return

                if not isinstance(target, Event):
                    exc = TypeError(
                        f"process {self.name!r} yielded {target!r}, "
                        "which is not an Event")
                    try:
                        throw(exc)
                    except StopIteration as stop:
                        self.succeed(stop.value)
                        return
                    except BaseException as err:
                        self.fail(err)
                        return
                    continue

                if target.callbacks is not None:
                    # Target not yet processed: wait for it.
                    target.callbacks.append(self._resume)
                    self._target = target
                    return
                # Target already processed: loop and deliver synchronously.
                event = target
        finally:
            sim._active_process = prev

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
