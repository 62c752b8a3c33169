"""Deterministic open/closed-loop load generation for the service.

:class:`LoadGenerator` drives a :class:`~repro.service.CampaignService`
with a mixed tenant population:

- *closed-loop* tenants keep a fixed number of campaigns in flight and
  submit a replacement the moment one finishes (think: a lab group with
  a standing pipeline);
- *open-loop* tenants submit at seeded-exponential arrival times
  regardless of completions (think: an external partner firing requests
  over the federation), taking explicit rejections on the chin.

Everything runs on sim time with seeded randomness, so a load run is a
reproducible experiment: same seed, same arrivals, same rejections,
same p99.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.core.campaign import CampaignSpec
from repro.core.report import CampaignReport
from repro.service.errors import AdmissionError
from repro.service.service import CampaignService
from repro.service.tenants import TenantQuota
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's traffic shape.

    Attributes
    ----------
    name / share / quota:
        Identity, fair-share weight, and admission quota (a default
        quota with this share when ``None``).
    mode:
        ``"closed"`` (fixed concurrency, submit-on-complete) or
        ``"open"`` (Poisson arrivals at ``arrival_rate_per_s``).
    campaigns:
        Total campaigns this tenant will try to submit.
    concurrency:
        Closed-loop: how many campaigns to keep in flight.
    arrival_rate_per_s:
        Open-loop: mean arrivals per sim-second.
    experiments:
        ``max_experiments`` per submitted campaign.
    priority / deadline_s:
        Per-submission priority and relative deadline (absolute
        deadline = submit time + ``deadline_s``; ``None`` = none).
    """

    name: str
    mode: str = "closed"
    campaigns: int = 10
    concurrency: int = 4
    arrival_rate_per_s: float = 0.0
    experiments: int = 8
    priority: int = 0
    deadline_s: Optional[float] = None
    share: float = 1.0
    quota: Optional[TenantQuota] = None

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', "
                             f"got {self.mode!r}")
        if self.campaigns < 1:
            raise ValueError("campaigns must be >= 1")
        if self.mode == "closed" and self.concurrency < 1:
            raise ValueError("closed-loop needs concurrency >= 1")
        if self.mode == "open" and not self.arrival_rate_per_s > 0:
            raise ValueError("open-loop needs arrival_rate_per_s > 0")


class LoadGenerator:
    """Drives a service with a population of :class:`TenantLoad` shapes.

    Construction registers every tenant and spawns one sim process per
    tenant; :meth:`run` advances the simulator and returns a summary
    with per-tenant outcomes, the aggregate p99 submit-to-complete
    latency, and the Jain fairness index.
    """

    def __init__(self, service: CampaignService,
                 loads: "list[TenantLoad]", *, seed: int = 0,
                 retry_backoff_s: float = 60.0) -> None:
        if not loads:
            raise ValueError("need at least one tenant load")
        self.service = service
        self.loads = list(loads)
        self.retry_backoff_s = float(retry_backoff_s)
        self.handles: dict[str, list] = {}
        self.rejections: dict[str, int] = {}
        sim = service.sim
        for i, load in enumerate(self.loads):
            quota = load.quota if load.quota is not None else \
                TenantQuota(max_in_flight=max(load.concurrency, 1),
                            max_queued=max(4 * load.concurrency, 64),
                            share=load.share)
            service.register_tenant(load.name, quota)
            self.handles[load.name] = []
            self.rejections[load.name] = 0
            rng = np.random.default_rng([seed, i])
            driver = self._closed_loop if load.mode == "closed" \
                else self._open_loop
            sim.process(driver(load, rng))

    # -- per-tenant drivers ------------------------------------------------

    def _spec(self, load: TenantLoad, index: int) -> CampaignSpec:
        return CampaignSpec(name=f"{load.name}-{index:04d}",
                            objective_key="objective",
                            max_experiments=load.experiments)

    def _submit(self, load: TenantLoad, index: int):
        deadline = None if load.deadline_s is None \
            else self.service.sim.now + load.deadline_s
        handle = self.service.submit(load.name, self._spec(load, index),
                                     priority=load.priority,
                                     deadline=deadline)
        self.handles[load.name].append(handle)
        return handle

    def _closed_loop(self, load: TenantLoad,
                     rng: np.random.Generator) -> Generator:
        """Keep ``concurrency`` in flight; replace as campaigns finish.

        Wake rule: the loop waits on one event, which it succeeds from a
        callback on its campaigns' done events when the kernel processes
        the first one that finishes, or at once if one was processed
        while the loop backed off.  That is the instant ``sim.any_of``
        over the in-flight done events would fire, and the wake is the
        one event pushed in its place, so the event stream is the same.
        On waking, the loop drops every campaign in a terminal status,
        including one whose done event is still queued; that event's
        callback then wakes nothing.  The loop assumes it is the only
        waiter on its campaigns' done events, as it is for every caller
        in this repository and the benchmark: another waiter called
        before it could push its own events ahead of the wake.
        """
        sim = self.service.sim
        submitted = 0
        in_flight: list = []      # done events of the campaigns in flight
        wake = None               # what the loop waits on, while it does
        finished_early = False    # one finished during a back-off

        def on_done(done) -> None:
            nonlocal finished_early
            if done not in in_flight:
                return            # dropped at an earlier wake
            if wake is None:
                finished_early = True
            elif not wake.triggered:
                wake.succeed()

        while submitted < load.campaigns or in_flight:
            while submitted < load.campaigns \
                    and len(in_flight) < load.concurrency:
                try:
                    done = self._submit(load, submitted)._done
                except AdmissionError:
                    self.rejections[load.name] += 1
                    # Bounded-queue backpressure: back off, then retry
                    # the same campaign index (jitter keeps tenants from
                    # thundering back in lockstep).
                    yield sim.timeout(
                        self.retry_backoff_s * (0.5 + rng.random()))
                    continue
                done.callbacks.append(on_done)
                in_flight.append(done)
                submitted += 1
            if in_flight:
                wake = sim.event()
                if finished_early:
                    wake.succeed()
                yield wake
                wake, finished_early = None, False
                in_flight = [done for done in in_flight if not done.triggered]

    def _open_loop(self, load: TenantLoad,
                   rng: np.random.Generator) -> Generator:
        """Poisson arrivals; rejections are counted, never retried."""
        sim = self.service.sim
        for index in range(load.campaigns):
            yield sim.timeout(rng.exponential(1.0 / load.arrival_rate_per_s))
            try:
                self._submit(load, index)
            except AdmissionError:
                self.rejections[load.name] += 1

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> dict[str, Any]:
        """Advance the simulator and summarize the run (plain data)."""
        self.service.sim.run(until=until)
        agg = self.service.metrics.histogram("service.submit_to_complete",
                                             lo=1e-3)
        per_tenant = {}
        for load in self.loads:
            state = self.service.tenant(load.name)
            per_tenant[load.name] = {
                "submitted": len(self.handles[load.name]),
                "completed": state.completed_campaigns,
                "experiments": state.completed_experiments,
                "rejections": self.rejections[load.name],
            }
        completed = sum(t["completed"] for t in per_tenant.values())
        rejected = sum(t["rejections"] for t in per_tenant.values())
        return {
            "tenants": per_tenant,
            "campaigns_completed": completed,
            "rejections": rejected,
            "peak_in_system": self.service.peak_in_system,
            "p99_submit_to_complete_s": agg.quantile(0.99),
            "mean_submit_to_complete_s": agg.mean,
            "fairness": self.service.fairness(),
            "sim_seconds": float(self.service.sim.now),
        }


def synthetic_runner(sim: Simulator, *, seed: int = 0,
                     mean_experiment_s: float = 300.0,
                     jitter: float = 0.3):
    """A facility-slot runner that "executes" campaigns as timed waits.

    Each experiment takes ``mean_experiment_s`` +/- ``jitter`` (seeded),
    and the campaign returns a ready :class:`CampaignReport`.  Useful
    for load tests and examples where real orchestrators would drown
    the signal; for the full stack, build slots from
    :meth:`CampaignService.from_testbed` instead.
    """
    rng = np.random.default_rng(seed)

    def run(spec: CampaignSpec) -> Generator:
        started = float(sim.now)
        best = None
        for _ in range(spec.max_experiments):
            scale = 1.0 + jitter * (2.0 * rng.random() - 1.0)
            yield sim.timeout(mean_experiment_s * scale)
            value = float(rng.random())
            best = value if best is None or value > best else best
        return CampaignReport(
            campaign=spec.name, objective_key=spec.objective_key,
            n_experiments=spec.max_experiments,
            n_valid=spec.max_experiments, best_value=best,
            stop_reason="budget-exhausted", started=started,
            finished=float(sim.now), sim_seconds=float(sim.now))

    return run
