"""The multi-tenant campaign service: one front door, shared slots.

:class:`CampaignService` multiplexes many tenants' campaigns over a
fixed pool of :class:`FacilitySlot` workers, entirely on simulated time:

- :meth:`~CampaignService.submit` applies admission control (registered
  tenant, bounded queue, experiment budget, live deadline) and returns a
  :class:`~repro.service.handle.CampaignHandle` — or raises an explicit
  :class:`~repro.service.errors.AdmissionError`; nothing is ever
  silently dropped.
- A fair-share + deadline scheduler (pluggable; see
  :mod:`repro.service.scheduler`) decides which tenant's campaign each
  freed slot serves next.
- Every campaign's outcome is a canonical
  :class:`~repro.core.report.CampaignReport`; runners may yield either a
  raw :class:`~repro.core.campaign.CampaignResult` (converted and
  tenant-stamped) or a ready report.
- ``service.*`` counters, gauges, and latency histograms land in a
  :class:`repro.obs.metrics.MetricsRegistry`, and every terminal
  transition appends a plain-data row to the decision log, so a whole
  service run hash-verifies under ``repro.scale``.

The service never consumes wall time and never iterates a set: same
seed, same event order, same decision hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Generator, Optional

from repro.core.campaign import CampaignResult, CampaignSpec
from repro.core.report import CampaignReport
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.errors import (BudgetExhausted, DeadlineExpired, QueueFull,
                                  UnknownTenant)
from repro.service.handle import CampaignHandle, CampaignStatus
from repro.service.scheduler import FairShareScheduler, QueueEntry
from repro.service.tenants import TenantQuota, TenantState, jain_fairness
from repro.sim.kernel import Simulator
from repro.sim.process import Interrupt

#: A campaign runner: a generator factory the slot drives on sim time,
#: returning a CampaignResult or a CampaignReport.
CampaignRunner = Callable[[CampaignSpec], Generator]


class _TenantMetrics:
    """One tenant's ``service.*`` metrics, each looked up once.

    Each metric is bound on first use, where a per-call registry lookup
    would first create it, so the registry ends up holding the same
    metrics; after that the hot path reads a plain attribute.
    """

    def __init__(self, registry: MetricsRegistry, tenant: str) -> None:
        self.registry = registry
        self.tenant = tenant
        #: ``in_system`` as of the tenant's last load-gauge update.
        self.in_system = 0
        self._finished: dict[CampaignStatus, Counter] = {}

    @cached_property
    def submitted(self) -> Counter:
        return self.registry.counter("service.submitted", tenant=self.tenant)

    @cached_property
    def admitted(self) -> Counter:
        return self.registry.counter("service.admitted", tenant=self.tenant)

    @cached_property
    def queued(self) -> Gauge:
        return self.registry.gauge("service.queued", tenant=self.tenant)

    @cached_property
    def running(self) -> Gauge:
        return self.registry.gauge("service.running", tenant=self.tenant)

    @cached_property
    def queue_wait(self) -> Histogram:
        return self.registry.histogram("service.queue_wait",
                                       tenant=self.tenant, lo=1e-3)

    @cached_property
    def experiments(self) -> Counter:
        return self.registry.counter("service.experiments",
                                     tenant=self.tenant)

    @cached_property
    def submit_to_complete(self) -> Histogram:
        return self.registry.histogram("service.submit_to_complete",
                                       tenant=self.tenant, lo=1e-3)

    def finished(self, status: CampaignStatus) -> Counter:
        """The ``service.<status>`` counter of terminal transitions."""
        counter = self._finished.get(status)
        if counter is None:
            counter = self._finished[status] = self.registry.counter(
                f"service.{status.value}", tenant=self.tenant)
        return counter


@dataclass(frozen=True)
class FacilitySlot:
    """One schedulable unit of facility capacity.

    ``runner(spec)`` must return a generator that executes the campaign
    on sim time and returns a :class:`CampaignResult` or
    :class:`CampaignReport` — typically
    ``built.orchestrator(site).run_campaign`` or a synthetic runner.
    """

    name: str
    runner: CampaignRunner


class CampaignService:
    """Multi-tenant campaign-as-a-service over a shared facility pool.

    Parameters
    ----------
    sim:
        The simulator everything runs on; one slot process is started
        per slot at construction.
    slots:
        The facility capacity. More slots = more campaigns in flight.
    scheduler:
        Cross-tenant dispatch policy; defaults to a fresh
        :class:`~repro.service.scheduler.FairShareScheduler`.
    metrics:
        Registry for ``service.*`` metrics (private one by default).
    default_quota:
        When given, unknown tenants are auto-registered with this quota
        on first submit; when ``None`` (default), submitting as an
        unregistered tenant raises
        :class:`~repro.service.errors.UnknownTenant`.
    """

    def __init__(self, sim: Simulator, slots: "list[FacilitySlot]", *,
                 scheduler: Optional[FairShareScheduler] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 default_quota: Optional[TenantQuota] = None) -> None:
        if not slots:
            raise ValueError("need at least one facility slot")
        self.sim = sim
        self.slots = list(slots)
        self.scheduler = scheduler if scheduler is not None \
            else FairShareScheduler()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.default_quota = default_quota
        self._tenants: dict[str, TenantState] = {}
        self._seq = 0  # per-service id source, no module globals
        self._idle: list[Any] = []  # parked slot wake events
        self._decision_log: list[list[Any]] = []
        self._meters: dict[str, _TenantMetrics] = {}
        self._in_system = 0  # queued + running over all tenants
        self._peak_in_system = 0
        self._procs = [sim.process(self._slot_loop(s)) for s in self.slots]

    # -- tenants -----------------------------------------------------------

    def register_tenant(self, name: str,
                        quota: Optional[TenantQuota] = None) -> TenantState:
        """Declare a tenant (idempotent; re-registering updates the quota)."""
        quota = quota if quota is not None else \
            (self.default_quota or TenantQuota())
        state = self._tenants.get(name)
        if state is None:
            state = self._tenants[name] = TenantState(name=name, quota=quota)
        else:
            state.quota = quota
        self.scheduler.register(name, quota.share)
        return state

    def tenant(self, name: str) -> TenantState:
        """Live accounting for one tenant (raises KeyError if unknown)."""
        return self._tenants[name]

    @property
    def tenants(self) -> "list[TenantState]":
        """All tenants, in registration order."""
        return [self._tenants[n] for n in self.scheduler.tenants]

    # -- the front door ----------------------------------------------------

    def submit(self, tenant: str, spec: CampaignSpec, *,
               priority: int = 0,
               deadline: Optional[float] = None) -> CampaignHandle:
        """Submit a campaign; returns a handle or raises AdmissionError.

        ``priority`` orders campaigns *within* the tenant (higher runs
        first); ``deadline`` is an absolute sim time — already-lapsed at
        submit is rejected, lapsed while queued expires the campaign.
        """
        meters = self._meters.get(tenant)
        if meters is None:
            meters = self._meters[tenant] = _TenantMetrics(self.metrics,
                                                           tenant)
        meters.submitted.inc()
        state = self._tenants.get(tenant)
        if state is None:
            if self.default_quota is None:
                self._count_rejection(tenant, UnknownTenant.reason, None)
                raise UnknownTenant(tenant, "not registered")
            state = self.register_tenant(tenant, self.default_quota)
        if deadline is not None and deadline <= self.sim.now:
            self._count_rejection(tenant, DeadlineExpired.reason, state)
            raise DeadlineExpired(
                tenant, f"deadline {deadline} <= now {self.sim.now}")
        if state.queued >= state.quota.max_queued:
            self._count_rejection(tenant, QueueFull.reason, state)
            raise QueueFull(
                tenant, f"queue at max_queued={state.quota.max_queued}",
                depth=state.queued)
        budget = state.budget_remaining
        if budget is not None and spec.max_experiments > budget:
            self._count_rejection(tenant, BudgetExhausted.reason, state)
            raise BudgetExhausted(
                tenant, f"needs {spec.max_experiments} experiments, "
                f"budget has {budget}")

        self._seq += 1
        handle = CampaignHandle(
            self, f"c-{self._seq:06d}", tenant, spec, priority, deadline,
            self.sim.now, self.sim.event())
        entry = QueueEntry(seq=self._seq, tenant=tenant, handle=handle,
                           cost=float(spec.max_experiments),
                           priority=priority, deadline=deadline)
        handle._entry = entry
        self.scheduler.enqueue(entry)
        state.queued += 1
        state.admitted_experiments += spec.max_experiments
        meters.admitted.inc()
        self._update_load_gauges(state)
        self._wake_slots()
        return handle

    def _count_rejection(self, tenant: str, reason: str,
                         state: Optional[TenantState]) -> None:
        self.metrics.counter("service.rejected", tenant=tenant,
                             reason=reason).inc()
        if state is not None:
            state.rejected += 1

    # -- slot execution ----------------------------------------------------

    def _wake_slots(self) -> None:
        waiters, self._idle = self._idle, []
        for ev in waiters:
            ev.succeed()

    def _eligible(self, tenant: str) -> bool:
        state = self._tenants[tenant]
        return state.running < state.quota.max_in_flight

    def _slot_loop(self, slot: FacilitySlot) -> Generator:
        """One facility slot: pull, run, report, repeat — forever.

        The process parks on a wake event whenever nothing is runnable,
        so a drained service never keeps the simulator alive.
        """
        # detlint: ignore[C003] slot supervision loop: each pass serves a new campaign; a runner failure fails that campaign only
        while True:
            entry = self.scheduler.select(self.sim.now, self._eligible)
            if entry is None:
                wake = self.sim.event()
                self._idle.append(wake)
                yield wake
                continue

            handle = entry.handle
            state = self._tenants[handle.tenant]
            meters = self._meters[handle.tenant]
            state.queued -= 1
            meters.queue_wait.observe(self.sim.now - handle.submitted_at)
            if handle.deadline is not None and handle.deadline < self.sim.now:
                self._finish(handle, CampaignStatus.EXPIRED)
                self._update_load_gauges(state)
                continue

            handle.status = CampaignStatus.RUNNING
            handle.started_at = self.sim.now
            state.running += 1
            self._update_load_gauges(state)
            proc = self.sim.process(self._run_one(slot, handle))
            handle._proc = proc
            try:
                report = yield proc
            except Interrupt:
                self._finish(handle, CampaignStatus.CANCELLED)
            except Exception as exc:  # runner bug — fail the campaign only
                handle.error = f"{type(exc).__name__}: {exc}"
                self._finish(handle, CampaignStatus.FAILED)
            else:
                handle._report = report
                state.completed_campaigns += 1
                state.completed_experiments += report.n_experiments
                meters.experiments.inc(report.n_experiments)
                self._finish(handle, CampaignStatus.COMPLETED)
            finally:
                handle._proc = None
                state.running -= 1
                self._update_load_gauges(state)
                # A slot freeing up may unblock a tenant that was at its
                # in-flight cap when other slots went idle — wake them.
                self._wake_slots()

    def _run_one(self, slot: FacilitySlot,
                 handle: CampaignHandle) -> Generator:
        result = yield from slot.runner(handle.spec)
        return self._to_report(result, slot, handle)

    def _to_report(self, result: Any, slot: FacilitySlot,
                   handle: CampaignHandle) -> CampaignReport:
        if isinstance(result, CampaignReport):
            return result.with_tenant(handle.tenant)
        if isinstance(result, CampaignResult):
            return CampaignReport.from_result(
                result, tenant=handle.tenant, sim_seconds=self.sim.now,
                target=handle.spec.target)
        raise TypeError(
            f"runner for slot {slot.name!r} returned "
            f"{type(result).__name__}; expected CampaignResult or "
            f"CampaignReport")

    def _finish(self, handle: CampaignHandle,
                status: CampaignStatus) -> None:
        handle.status = status
        handle.finished_at = self.sim.now
        meters = self._meters[handle.tenant]
        meters.finished(status).inc()
        if status is CampaignStatus.COMPLETED:
            latency = handle.latency
            meters.submit_to_complete.observe(latency)
            self._submit_to_complete.observe(latency)
        self._decision_log.append([
            handle.campaign_id, handle.tenant, status.value,
            float(handle.submitted_at),
            float(handle.started_at if handle.started_at is not None else -1),
            float(handle.finished_at),
            float(handle._report.n_experiments if handle._report else 0),
        ])
        handle._done.succeed(status)

    # -- cancellation ------------------------------------------------------

    def cancel(self, handle: CampaignHandle) -> bool:
        """Cancel a queued or running campaign (see ``handle.cancel()``)."""
        if handle.status is CampaignStatus.QUEUED:
            self.scheduler.remove(handle._entry)
            state = self._tenants[handle.tenant]
            state.queued -= 1
            self._finish(handle, CampaignStatus.CANCELLED)
            self._update_load_gauges(state)
            return True
        # A finished run stays RUNNING until its slot collects it; a
        # cancel in that window has nothing left to interrupt.  Dropping
        # the process once interrupted makes a second cancel a no-op.
        proc = handle._proc
        if handle.status is CampaignStatus.RUNNING \
                and proc is not None and proc.is_alive:
            handle._proc = None
            proc.interrupt("cancelled")
            return True
        return False

    # -- observability -----------------------------------------------------

    @cached_property
    def _backlog_gauge(self) -> Gauge:
        return self.metrics.gauge("service.backlog")

    @cached_property
    def _peak_gauge(self) -> Gauge:
        return self.metrics.gauge("service.peak_in_system")

    @cached_property
    def _submit_to_complete(self) -> Histogram:
        # Unlabeled aggregate: LoadGenerator states its p99 over it.
        return self.metrics.histogram("service.submit_to_complete", lo=1e-3)

    def _update_load_gauges(self, state: TenantState) -> None:
        meters = self._meters[state.name]
        meters.queued.set(state.queued)
        meters.running.set(state.running)
        # The backlog is a running total: every change to a tenant's
        # queued or running count is followed by this call, so adding
        # the tenant's change keeps it equal to the sum over tenants.
        in_system = state.in_system
        self._in_system += in_system - meters.in_system
        meters.in_system = in_system
        self._backlog_gauge.set(self._in_system)
        if self._in_system > self._peak_in_system:
            self._peak_in_system = self._in_system
            self._peak_gauge.set(self._in_system)

    @property
    def peak_in_system(self) -> int:
        """High-water mark of queued+running campaigns across tenants."""
        return self._peak_in_system

    def load(self) -> dict[str, Any]:
        """Backpressure snapshot: per-tenant depth and headroom.

        Clients use this to pace open-loop submission (see
        :class:`repro.service.loadgen.LoadGenerator`).
        """
        return {
            "backlog": sum(t.in_system for t in self.tenants),
            "tenants": {
                t.name: {"queued": t.queued, "running": t.running,
                         "queue_headroom": t.quota.max_queued - t.queued,
                         "budget_remaining": t.budget_remaining}
                for t in self.tenants
            },
        }

    def utilization_report(self) -> dict[str, Any]:
        """Operator dashboard read back from the ``service.*`` metrics.

        This is the read side of the service's observability contract:
        the admission counters, load gauges, and queue-wait histograms
        emitted above are consumed here, so emit/read drift in a metric
        name shows up as a C002 contract finding instead of a silently
        empty dashboard.
        """
        tenants: dict[str, dict[str, Any]] = {}
        for t in self.tenants:
            tenants[t.name] = {
                "admitted": self.metrics.counter("service.admitted",
                                                 tenant=t.name).value,
                "queued": self.metrics.gauge("service.queued",
                                             tenant=t.name).value,
                "running": self.metrics.gauge("service.running",
                                              tenant=t.name).value,
                "queue_wait": self.metrics.histogram(
                    "service.queue_wait", tenant=t.name, lo=1e-3).summary(),
            }
        return {
            "backlog": self.metrics.gauge("service.backlog").value,
            "peak_in_system":
                self.metrics.gauge("service.peak_in_system").value,
            "tenants": tenants,
        }

    def fairness(self) -> float:
        """Jain index of share-normalized delivered throughput.

        Computed over tenants that asked for work (admitted > 0);
        1.0 means delivered experiments matched the share weights.
        """
        served = [t.completed_experiments / t.quota.share
                  for t in self.tenants if t.admitted_experiments > 0]
        return jain_fairness(served)

    def decision_log(self) -> "list[list[Any]]":
        """Plain-data terminal-transition log, for decision hashing."""
        return [list(row) for row in self._decision_log]

    # -- construction sugar ------------------------------------------------

    @classmethod
    def from_testbed(cls, built: Any, *, sites: Optional[list] = None,
                     **kwargs: Any) -> "CampaignService":
        """Service over a built testbed: one slot per (chosen) site.

        ``built`` is a :class:`repro.testbed.BuiltTestbed`; each slot
        runs campaigns through that site's orchestrator, so admission,
        fair-share, and reporting wrap the full A1 stack.
        """
        names = list(built.orchestrators) if sites is None else list(sites)
        slots = [FacilitySlot(name=n,
                              runner=built.orchestrator(n).run_campaign)
                 for n in names]
        return cls(built.sim, slots, **kwargs)
