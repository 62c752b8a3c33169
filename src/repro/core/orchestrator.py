"""The hierarchical AI-agent campaign orchestrator (M8).

The cognitive loop of one autonomous laboratory:

1. **Sync** — absorb cross-facility knowledge (M9) when attached.
2. **Plan** — the planner agent proposes an experiment (LLM-orchestrated
   or LLM-direct, per its mode).
3. **Verify** — the verification stack vets the plan; rejected plans are
   repaired (bounded attempts) before anything touches hardware.
4. **Execute** — the executor runs the plan on instruments through the
   HAL (optionally wrapped in fault-tolerant retry/failover).
5. **Evaluate** — the evaluator updates the optimizer and convergence
   state; valid results are published to the knowledge base and, when a
   mesh node is attached, ingested into the data fabric with provenance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.agents.evaluator import EvaluatorAgent
from repro.agents.executor import ExecutorAgent, ExperimentOutcome
from repro.agents.planner import ExperimentPlan, PlannerAgent
from repro.core.campaign import CampaignResult, CampaignSpec, ExperimentRecord
from repro.core.knowledge import KnowledgeBase
from repro.core.verification import VerificationStack
from repro.data.record import DataRecord
from repro.instruments.errors import InstrumentFault
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.faulttol import FaultTolerantExecutor
    from repro.data.mesh import DataMeshNode
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.sim.kernel import Simulator

#: Verification retries of a rejected plan: each failed check is followed
#: by a repair, up to ``_MAX_REPAIR_ATTEMPTS + 1`` of them, and the last
#: repaired plan gets one final check.
_MAX_REPAIR_ATTEMPTS = 2


class HierarchicalOrchestrator:
    """Drives one site's campaign loop.

    Parameters
    ----------
    sim:
        Kernel.
    planner / executor / evaluator:
        The agent trio for this site.
    verification:
        Optional :class:`VerificationStack`; omit to reproduce the
        "agent usage without verification tools" arm of M8.
    knowledge:
        Optional :class:`KnowledgeBase` this site participates in.
    fault_tolerant:
        Optional :class:`~repro.core.faulttol.FaultTolerantExecutor`
        wrapping execution.
    mesh_node:
        Optional data-fabric node; valid measurements are ingested with
        full provenance.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; every campaign becomes
        a span tree (campaign > experiment > plan/verify/execute/evaluate)
        replayable from the JSON-lines export.  Defaults to the no-op
        tracer, which costs ~nothing.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; campaign
        counters and the per-site experiment-duration histogram report
        into it.
    """

    def __init__(self, sim: "Simulator", planner: PlannerAgent,
                 executor: ExecutorAgent, evaluator: EvaluatorAgent, *,
                 verification: Optional[VerificationStack] = None,
                 knowledge: Optional[KnowledgeBase] = None,
                 fault_tolerant: Optional["FaultTolerantExecutor"] = None,
                 mesh_node: Optional["DataMeshNode"] = None,
                 tracer: Optional["Tracer"] = None,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        self.sim = sim
        self.planner = planner
        self.executor = executor
        self.evaluator = evaluator
        self.verification = verification
        self.knowledge = knowledge
        self.fault_tolerant = fault_tolerant
        self.mesh_node = mesh_node
        self.site = executor.site
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        if metrics is not None:
            self._n_experiments = metrics.counter("campaign.experiments",
                                                  site=self.site)
            self._n_skipped = metrics.counter("campaign.skipped_plans",
                                              site=self.site)
            self._duration_hist = metrics.histogram(
                "campaign.experiment_duration", site=self.site)

    # -- the loop ---------------------------------------------------------------

    def run_campaign(self, spec: CampaignSpec):
        """Generator: run a campaign to completion; returns the result."""
        result = CampaignResult(spec=spec, started=self.sim.now)
        stop_reason = "budget-exhausted"
        skipped_plans = 0
        consecutive_skips = 0
        tracer = self.tracer

        with tracer.span("campaign", name=spec.name, site=self.site,
                         budget=spec.max_experiments):
            while result.n_experiments < spec.max_experiments:
                with tracer.span("experiment", index=result.n_experiments):
                    if self.knowledge is not None:
                        with tracer.span("sync"):
                            self.knowledge.sync(self.site)

                    with tracer.span("plan"):
                        plan = yield from self.planner.next_plan()
                    with tracer.span("verify", plan_id=plan.plan_id):
                        plan, accepted = yield from self._verify_and_repair(
                            plan)
                    if not accepted:
                        tracer.instant("plan-skipped", plan_id=plan.plan_id)
                        skipped_plans += 1
                        consecutive_skips += 1
                        if consecutive_skips >= 25:
                            # Verification is rejecting everything the
                            # planner can produce: stop and say so rather
                            # than spin forever.
                            stop_reason = "verification-stalemate"
                            break
                        continue
                    consecutive_skips = 0

                    try:
                        with tracer.span("execute", plan_id=plan.plan_id):
                            outcome = yield from self._execute(plan)
                    except InstrumentFault as exc:
                        stop_reason = f"instrument-fault: {exc}"
                        break

                    with tracer.span("evaluate"):
                        verdict = self.evaluator.evaluate(outcome)
                    self._record(result, outcome)
                    if outcome.valid and outcome.objective is not None:
                        self._disseminate(outcome)

                    if verdict.get("target_reached"):
                        stop_reason = "target-reached"
                        break
                    if verdict.get("converged"):
                        stop_reason = "converged"
                        break

        result.finished = self.sim.now
        result.best_value = self.evaluator.best_value
        result.best_params = self.evaluator.best_params
        result.stop_reason = stop_reason
        result.counters = self._counters(skipped_plans)
        if self.metrics is not None:
            self._n_skipped.inc(skipped_plans)
        tracer.instant("campaign-finished", stop_reason=stop_reason,
                       experiments=result.n_experiments)
        return result

    # -- stages ---------------------------------------------------------------------

    def _verify_and_repair(self, plan: ExperimentPlan):
        """Generator: returns (plan, accepted)."""
        if self.verification is None:
            return plan, True
        for _attempt in range(_MAX_REPAIR_ATTEMPTS + 1):
            verdict = yield from self.verification.verify(plan)
            if verdict.ok:
                return plan, True
            plan = yield from self.planner.repair_plan(plan)
        # Final repaired plan gets one last check; give up if still bad.
        verdict = yield from self.verification.verify(plan)
        return plan, verdict.ok

    def _execute(self, plan: ExperimentPlan):
        if self.fault_tolerant is not None:
            outcome = yield from self.fault_tolerant.execute(plan)
        else:
            outcome = yield from self.executor.execute(plan)
        return outcome

    def _record(self, result: CampaignResult,
                outcome: ExperimentOutcome) -> None:
        if self.metrics is not None:
            self._n_experiments.inc()
            self._duration_hist.observe(outcome.finished - outcome.started)
        result.records.append(ExperimentRecord(
            index=len(result.records), params=dict(outcome.plan.params),
            valid=outcome.valid, objective=outcome.objective,
            source=outcome.plan.source, started=outcome.started,
            finished=outcome.finished, verified=outcome.plan.verified,
            repaired=outcome.plan.repaired, failure=outcome.failure,
            site=self.site))

    def _disseminate(self, outcome: ExperimentOutcome) -> None:
        if self.knowledge is not None:
            self.knowledge.publish(
                self.site, outcome.plan.params, float(outcome.objective),
                trace=f"{outcome.plan.plan_id}: {outcome.plan.rationale}")
        if self.mesh_node is not None and outcome.measurement is not None:
            record = DataRecord.from_measurement(outcome.measurement)
            record.provenance_id = record.record_id
            self.mesh_node.ingest(record)
            prov = self.mesh_node.provenance
            activity = f"exp/{outcome.plan.plan_id}"
            prov.agent(self.planner.name, kind="planner")
            prov.agent(self.executor.name, kind="executor")
            prov.activity(activity, started=outcome.started,
                          ended=outcome.finished)
            prov.was_associated_with(activity, self.executor.name)
            if outcome.sample is not None:
                prov.entity(outcome.sample.sample_id)
                prov.used(activity, outcome.sample.sample_id)
            prov.entity(record.record_id)
            prov.was_generated_by(record.record_id, activity)
            prov.was_attributed_to(record.record_id, self.planner.name)

    def _counters(self, skipped_plans: int) -> dict[str, Any]:
        counters: dict[str, Any] = {
            "skipped_plans": skipped_plans,
            "planner_mode": self.planner.mode,
            "plans": dict(self.planner.plan_stats),
            "llm": dict(self.planner.llm.stats),
        }
        if self.verification is not None:
            counters["verification"] = dict(self.verification.stats)
        if self.fault_tolerant is not None:
            counters["fault_tolerance"] = dict(self.fault_tolerant.stats)
        return counters
