"""Fault-tolerant experiment execution (M3, experiment E11).

Wraps an executor with the "adaptive fault-tolerant coordination
mechanisms" the roadmap calls for:

- **retry with repair**: on an instrument fault, dispatch repair and
  retry the plan (three attempts per plan, with no backoff pause: repair
  time paces the loop);
- **failover**: if alternate executors are registered (another site's
  identical rig), re-route the plan there while repair proceeds; the
  primary route is guarded by a :class:`~repro.resilience.CircuitBreaker`
  so repeatedly-faulting hardware is quarantined instead of re-tried
  (two consecutive primary faults quarantine it for 900 s);
- **supervision**: agent crashes are already covered by
  :class:`repro.agents.lifecycle.Supervisor`; this class handles the
  hardware side.

The attempt loop itself is :func:`repro.resilience.resilient_call` —
this class only contributes route selection and repair scheduling.
Without fault tolerance, a single instrument fault ends the campaign
(the ``HierarchicalOrchestrator`` lets :class:`InstrumentFault`
propagate) — that contrast is E11.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.agents.executor import ExecutorAgent, ExperimentOutcome
from repro.agents.planner import ExperimentPlan
from repro.instruments.base import Instrument, InstrumentStatus
from repro.instruments.errors import InstrumentFault
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.resilience import (CircuitBreaker, RetriesExhausted, RetryPolicy,
                              resilient_call)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class FaultTolerantExecutor:
    """Retry/repair/failover wrapper around one or more executors.

    Parameters
    ----------
    sim:
        Kernel.
    primary:
        The home executor.
    primary_instruments:
        Instruments whose faults we can repair (the synthesis rig and the
        characterization instrument, typically).
    alternates:
        Executors at other sites that can run the same plan.
    metrics:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry` the
        fault-handling counters and repair-time histogram report into.
    tracer:
        Optional tracer; attempts run inside ``resilience.attempt`` spans.

    Each plan gets three attempts across all routes, retried at once
    (``RetryPolicy.immediate(3)``).  The primary route's breaker trips
    after two consecutive faults and quarantines the primary for 900 s;
    it is only consulted when alternates exist — with a single route
    there is nothing to re-route to.
    """

    def __init__(self, sim: "Simulator", primary: ExecutorAgent,
                 primary_instruments: Optional[list[Instrument]] = None,
                 alternates: Optional[list[ExecutorAgent]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=NULL_TRACER) -> None:
        self.sim = sim
        self.primary = primary
        self.primary_instruments = list(primary_instruments or [])
        self.alternates = list(alternates or [])
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer
        self.retry_policy = RetryPolicy.immediate(3)
        self.breaker = CircuitBreaker(
            sim, failure_threshold=2, recovery_time_s=900.0,
            name=f"faulttol.{primary.site}", metrics=self.metrics)
        self.stats = self.metrics.stats(
            "faulttol",
            {"attempts": 0, "faults_handled": 0, "repairs": 0,
             "failovers": 0, "gave_up": 0}, site=primary.site)
        self.repair_hist = self.metrics.histogram("faulttol.repair_time",
                                                  site=primary.site)
        self.events: list[tuple[float, str, str]] = []
        self._repairing: set[str] = set()

    def _repair_faulted(self):
        """Generator: repair every faulted primary instrument (blocking)."""
        for inst in self.primary_instruments:
            if (inst.status is InstrumentStatus.FAULT
                    and inst.name not in self._repairing):
                self._repairing.add(inst.name)
                started = self.sim.now
                self.events.append((started, "repair-start", inst.name))
                try:
                    yield from inst.repair()
                finally:
                    self._repairing.discard(inst.name)
                self.stats["repairs"] += 1
                self.repair_hist.observe(self.sim.now - started)
                self.events.append((self.sim.now, "repair-done", inst.name))

    def _start_background_repair(self) -> None:
        """Dispatch repair without blocking the campaign (failover mode)."""
        self.sim.process(self._repair_faulted())

    # -- route selection -------------------------------------------------------

    def _select_route(self) -> ExecutorAgent:
        """Primary unless it is down or quarantined and an alternate is up."""
        if self.alternates and (self._primary_down()
                                or not self.breaker.allow()):
            alternate = self._pick_alternate()
            if alternate is not None:
                self.stats["failovers"] += 1
                self.events.append(
                    (self.sim.now, "failover", alternate.site))
                return alternate
        return self.primary

    def _attempt(self, plan: ExperimentPlan):
        self.stats["attempts"] += 1
        route = self._select_route()
        try:
            outcome = yield from route.execute(plan)
        except InstrumentFault as exc:
            self.stats["faults_handled"] += 1
            self.events.append((self.sim.now, "fault", str(exc)))
            if route is self.primary:
                self.breaker.record_failure()
                if self.alternates:
                    # Fail over next attempt; fix the primary meanwhile.
                    self._start_background_repair()
            raise
        if route is self.primary:
            self.breaker.record_success()
        return outcome

    def _recover(self, _exc, _next_attempt):
        """Between attempts: without an alternate, the campaign waits out
        the repair before the plan is retried."""
        if not self.alternates:
            yield from self._repair_faulted()

    # -- execution -------------------------------------------------------------

    def execute(self, plan: ExperimentPlan):
        """Generator: run a plan with fault handling; returns the outcome.

        Raises :class:`InstrumentFault` only after every route and
        attempt is exhausted.
        """
        try:
            # detlint: ignore[C003] bounded by three immediate attempts over a finite route set; a sim-time budget would abort mid-repair
            outcome: ExperimentOutcome = yield from resilient_call(
                self.sim, lambda _n: self._attempt(plan),
                policy=self.retry_policy,
                retry_on=(InstrumentFault,),
                recover=self._recover,
                name=f"faulttol.{self.primary.site}",
                tracer=self.tracer, metrics=self.metrics)
        except RetriesExhausted as exc:
            self.stats["gave_up"] += 1
            raise (exc.last_error
                   or InstrumentFault("execution failed")) from None
        return outcome

    def _primary_down(self) -> bool:
        return any(inst.status in (InstrumentStatus.FAULT,
                                   InstrumentStatus.OFFLINE)
                   for inst in self.primary_instruments)

    def _pick_alternate(self) -> Optional[ExecutorAgent]:
        for alt in self.alternates:
            if alt.alive or alt.state.value == "init":
                return alt
        return None
