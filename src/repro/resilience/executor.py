"""The :func:`resilient_call` combinator: policy-driven attempt loops.

One generator wraps any sim-process callable with the whole reliability
vocabulary — :class:`~repro.resilience.policy.RetryPolicy` backoff,
cumulative :class:`~repro.resilience.policy.Deadline` accounting,
:class:`~repro.resilience.policy.CircuitBreaker` admission, per-attempt
tracing spans, and registry counters.  The RPC client, the fault-tolerant
executor, and any future chaos experiment all run their attempts through
this single loop, so retry semantics (and their observability) cannot
drift apart again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.resilience.policy import (CircuitBreaker, CircuitOpen, Deadline,
                                     RetryPolicy)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import Event
    from repro.sim.kernel import Simulator


class DeadlineExceeded(Exception):
    """The deadline elapsed while an attempt was still in flight."""


class RetriesExhausted(Exception):
    """Every allowed attempt failed (or the deadline closed the loop).

    Attributes
    ----------
    attempts:
        How many attempts were actually made.
    last_error:
        The exception raised by the final attempt (``None`` when the
        deadline expired before a first attempt could start).
    """

    def __init__(self, name: str, attempts: int,
                 last_error: Optional[BaseException]) -> None:
        detail = f": {last_error}" if last_error is not None else ""
        super().__init__(f"{name} failed after {attempts} attempt(s){detail}")
        self.attempts = attempts
        self.last_error = last_error


#: The ``resilience.call.*`` counters every call name gets.
_CALL_COUNTERS = ("calls", "attempts", "retries", "successes", "failures",
                  "deadline_exceeded", "breaker_rejected")


def _defuse(event: "Event") -> None:
    """Callback: nobody waits on ``event``, so its failure is handled."""
    event._defused = True


def resilient_call(sim: "Simulator",
                   attempt: Callable[[int], Generator],
                   *, policy: RetryPolicy,
                   deadline: Optional[Deadline] = None,
                   breaker: Optional[CircuitBreaker] = None,
                   retry_on: tuple = (Exception,),
                   name: str = "call",
                   tracer: Any = NULL_TRACER,
                   metrics: Optional[MetricsRegistry] = None,
                   on_retry: Optional[Callable[[int, BaseException],
                                               Any]] = None,
                   recover: Optional[Callable[[BaseException, int],
                                              Generator]] = None):
    """Generator: run ``attempt`` under a retry/deadline/breaker policy.

    ``yield from resilient_call(...)`` from inside a simulation process.

    Parameters
    ----------
    sim:
        Kernel.
    attempt:
        Factory called with the 1-based attempt number; must return a
        fresh generator each time (generators are single-shot).
    policy:
        Attempt budget and backoff schedule.
    deadline:
        Optional cumulative simulated-time budget.  Finite deadlines race
        each in-flight attempt against the remaining budget: if the clock
        wins, the attempt process is interrupted and
        :class:`DeadlineExceeded` is raised.  The attempt is abandoned,
        so the failures of its process and of the event it was waiting on
        (a send still in flight, a server's dispatch process) are
        defused: a transfer dropped after the deadline does not crash
        ``sim.run()``.
    breaker:
        Optional circuit breaker consulted *before* each attempt; an open
        breaker raises :class:`CircuitOpen` without spending time.
    retry_on:
        Exception types that consume an attempt and trigger a retry.
        Anything else propagates immediately.
    name / tracer / metrics:
        Observability: each attempt runs inside a ``resilience.attempt``
        span, and the registry (when given) accumulates the seven
        ``resilience.call.*`` counters labelled with ``call=name``.  The
        first call of a name on a registry creates all seven and binds
        them (:meth:`~repro.obs.metrics.MetricsRegistry.bound`); later
        calls of that name reuse the handles without a registry lookup.
    on_retry:
        Plain callback ``(next_attempt, last_error)`` fired before each
        retry — the hook call sites use to keep their public ``stats``
        mappings (retry counts) API-compatible.
    recover:
        Optional generator ``(last_error, next_attempt)`` run *before*
        the backoff pause of each retry — e.g. a blocking instrument
        repair that must finish before the plan is retried.

    Raises
    ------
    DeadlineExceeded
        A finite deadline fired while an attempt was in flight.
    RetriesExhausted
        The attempt/deadline budget ran out; carries the last error.
    CircuitOpen
        The breaker rejected the call.
    """
    counters = None
    if metrics is not None:
        counters = metrics.bound(("resilience.call", name), lambda: {
            key: metrics.counter(f"resilience.call.{key}", call=name)
            for key in _CALL_COUNTERS})
        counters["calls"].inc()

    attempts = 0
    last_exc: Optional[BaseException] = None
    while ((deadline is None or not deadline.expired)
           and policy.should_retry(attempts)):
        attempts += 1
        if attempts > 1:
            if on_retry is not None:
                on_retry(attempts, last_exc)
            if counters is not None:
                counters["retries"].inc()
            if recover is not None:
                yield from recover(last_exc, attempts)
            pause = policy.delay(attempts - 1)
            if deadline is not None:
                pause = deadline.clamp(pause)
            if pause > 0:
                yield sim.timeout(pause)
            if deadline is not None and deadline.expired:
                break
        if breaker is not None and not breaker.allow():
            if counters is not None:
                counters["breaker_rejected"].inc()
            raise CircuitOpen(f"{name}: breaker {breaker.name!r} is open")
        if counters is not None:
            counters["attempts"].inc()
        with tracer.span("resilience.attempt", call=name, attempt=attempts):
            if deadline is not None and deadline.finite:
                work = sim.process(attempt(attempts))
                clock = sim.timeout(deadline.remaining())
                try:
                    fired = yield work | clock
                except retry_on as exc:
                    last_exc = exc
                    if breaker is not None:
                        breaker.record_failure()
                    continue
                if work not in fired:
                    # The deadline won the race: detach from the in-flight
                    # attempt, and absorb the failures of the attempt and
                    # of the event it was waiting on, which no one waits
                    # for any more.
                    if work.is_alive:
                        abandoned = work.target
                        work.interrupt("deadline")
                        for event in (work, abandoned):
                            if event is not None \
                                    and event.callbacks is not None:
                                event.callbacks.append(_defuse)
                    if counters is not None:
                        counters["deadline_exceeded"].inc()
                    raise DeadlineExceeded(
                        f"{name} deadline after attempt {attempts}")
                result = fired[work]
            else:
                try:
                    result = yield from attempt(attempts)
                except retry_on as exc:
                    last_exc = exc
                    if breaker is not None:
                        breaker.record_failure()
                    continue
            if breaker is not None:
                breaker.record_success()
            if counters is not None:
                counters["successes"].inc()
            return result
    if counters is not None:
        counters["failures"].inc()
    raise RetriesExhausted(name, attempts, last_exc)
