"""The manual-orchestration baseline (E1's denominator, E10's "decades").

Models the traditional research workflow the paper's introduction
describes: a human scientist designs a *batch* of experiments, waits for
the lab to run them, analyzes the results, and decides the next batch —
with human decision latency (meetings, analysis, other duties) between
cycles, and no decisions outside working hours.

The same underlying selection method (the shared optimizer) is used, so
E1 isolates *orchestration latency*, not statistical skill.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.agents.evaluator import EvaluatorAgent
from repro.agents.executor import ExecutorAgent
from repro.agents.planner import ExperimentPlan, PlannerAgent
from repro.core.campaign import CampaignResult, CampaignSpec, ExperimentRecord
from repro.instruments.errors import InstrumentFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

#: Seconds in a (simulated) day.
DAY = 86_400.0


class ManualOrchestrator:
    """Human-in-every-loop campaign runner.

    Parameters
    ----------
    sim:
        Kernel.
    planner / executor / evaluator:
        Same trio as the autonomous loop — the planner is used purely as
        an optimizer front-end here (``mode`` is ignored; the human runs
        the analysis software by hand).
    batch_size:
        Experiments designed per decision cycle.
    decision_delay_s:
        Mean human turnaround per decision cycle (log-normal, sigma 0.4).
    rng:
        Random stream for human latency.
    """

    #: ``(start_hour, end_hour)`` during which decisions can happen;
    #: decisions queued outside hours wait for the next morning.
    WORKDAY = (9.0, 17.0)

    def __init__(self, sim: "Simulator", planner: PlannerAgent,
                 executor: ExecutorAgent, evaluator: EvaluatorAgent, *,
                 batch_size: int = 4, decision_delay_s: float = 4 * 3600.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.sim = sim
        self.planner = planner
        self.executor = executor
        self.evaluator = evaluator
        self.batch_size = batch_size
        self.decision_delay_s = decision_delay_s
        self.rng = rng or np.random.default_rng(0)
        self.site = executor.site

    # -- human time model ---------------------------------------------------------

    def _next_working_instant(self, t: float) -> float:
        """Earliest time >= t within working hours."""
        start_h, end_h = self.WORKDAY
        day = int(t // DAY)
        hour = (t % DAY) / 3600.0
        if hour < start_h:
            return day * DAY + start_h * 3600.0
        if hour >= end_h:
            return (day + 1) * DAY + start_h * 3600.0
        return t

    def _human_delay(self) -> float:
        mu = np.log(self.decision_delay_s)
        return float(self.rng.lognormal(mean=mu, sigma=0.4))

    def _decision_pause(self):
        """Generator: one human decision cycle's worth of waiting."""
        ready = self.sim.now + self._human_delay()
        ready = self._next_working_instant(ready)
        if ready > self.sim.now:
            yield self.sim.timeout(ready - self.sim.now)

    # -- campaign loop ----------------------------------------------------------------

    def run_campaign(self, spec: CampaignSpec):
        """Generator: run the campaign with human cadence."""
        result = CampaignResult(spec=spec, started=self.sim.now)
        stop_reason = "budget-exhausted"
        done = False
        while result.n_experiments < spec.max_experiments and not done:
            # The scientist thinks, then designs a batch.
            yield from self._decision_pause()
            batch: list[ExperimentPlan] = []
            n = min(self.batch_size,
                    spec.max_experiments - result.n_experiments)
            for _ in range(n):
                params = self.planner.optimizer.ask()
                batch.append(ExperimentPlan(params=dict(params),
                                            source="human+optimizer",
                                            rationale="manual batch design"))
            # The lab runs the batch serially (one robot, one operator).
            for plan in batch:
                try:
                    outcome = yield from self.executor.execute(plan)
                except InstrumentFault as exc:
                    stop_reason = f"instrument-fault: {exc}"
                    done = True
                    break
                verdict = self.evaluator.evaluate(outcome)
                result.records.append(ExperimentRecord(
                    index=len(result.records),
                    params=dict(plan.params), valid=outcome.valid,
                    objective=outcome.objective, source=plan.source,
                    started=outcome.started, finished=outcome.finished,
                    site=self.site))
                if verdict.get("target_reached"):
                    stop_reason = "target-reached"
                    done = True
                    break
                if verdict.get("converged"):
                    stop_reason = "converged"
                    done = True
                    break
        result.finished = self.sim.now
        result.best_value = self.evaluator.best_value
        result.best_params = self.evaluator.best_params
        result.stop_reason = stop_reason
        result.counters = {"planner_mode": "manual",
                           "batch_size": self.batch_size}
        return result
