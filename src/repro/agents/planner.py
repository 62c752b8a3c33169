"""The planner agent: hierarchical LLM orchestration of methods (M8).

Two operating modes, which experiment E1/E2 contrast:

- ``hierarchical`` (the paper's recommended architecture): the LLM acts
  as orchestrator — it picks *which tool* to use — and parameter
  selection is delegated to a sound optimizer (BO).  LLM calls happen
  only at stage boundaries, so campaigns are fast and proposals sound.
- ``llm-direct`` (the strawman the paper warns about): the LLM proposes
  experimental parameters itself on every step, paying latency each time
  and hallucinating at its base rate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.agents.base import Agent
from repro.agents.llm import SimulatedLLM
from repro.sim.ids import next_label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.methods.baselines import AskTellOptimizer


@dataclass
class ExperimentPlan:
    """One proposed experiment.

    ``expected`` carries the planner's predicted outcome — what the twin
    checks claims against.  ``grounded`` is hidden accounting metadata
    (set by the LLM model), never consulted by orchestration logic.
    """

    params: dict[str, Any]
    instrument_op: str = "synthesize"
    expected: dict[str, float] = field(default_factory=dict)
    source: str = "optimizer"
    rationale: str = ""
    plan_id: str = ""
    grounded: bool = True
    verified: bool = False
    repaired: bool = False

    def __post_init__(self) -> None:
        if not self.plan_id:
            # Plans minted by a PlannerAgent get instance-scoped ids; this
            # ambient-world fallback covers plans built outside a planner
            # (the determinism contract extends to trace exports, which
            # carry plan_id attributes).
            self.plan_id = next_label("plan")


class PlannerAgent(Agent):
    """Produces :class:`ExperimentPlan` objects for the orchestrator.

    Parameters
    ----------
    optimizer:
        The sound ask/tell method (BO / nested BO) used in hierarchical
        mode — and available as a repair fallback in any mode.
    llm:
        The simulated LLM.
    mode:
        ``"hierarchical"`` or ``"llm-direct"``.
    safety_envelope:
        Advisory envelope passed into LLM prompts (the model may still
        ignore it — that is the hallucination).
    """

    def __init__(self, sim, name: str, site: str,
                 optimizer: AskTellOptimizer, llm: SimulatedLLM, *,
                 mode: str = "hierarchical",
                 safety_envelope: Optional[Mapping[str, tuple[float, float]]] = None,
                 ) -> None:
        super().__init__(sim, name, site)
        if mode not in ("hierarchical", "llm-direct"):
            raise ValueError(f"unknown planner mode {mode!r}")
        self.optimizer = optimizer
        self.llm = llm
        self.mode = mode
        self.safety_envelope = dict(safety_envelope or {})
        self.plan_stats = {"plans": 0, "llm_plans": 0, "optimizer_plans": 0,
                           "repairs": 0}
        self._plan_ids = itertools.count(1)

    def _next_plan_id(self) -> str:
        return f"{self.name}-plan-{next(self._plan_ids)}"

    # -- planning --------------------------------------------------------------

    def next_plan(self):
        """Generator: produce the next experiment plan."""
        self.plan_stats["plans"] += 1
        if self.mode == "hierarchical":
            plan = yield from self._hierarchical_plan()
        else:
            plan = yield from self._llm_direct_plan()
        return plan

    def _hierarchical_plan(self):
        # The LLM only *selects the tool* (amortized: once per 10 steps it
        # reconsiders; otherwise the cached choice stands).
        if self.plan_stats["plans"] % 10 == 1:
            resp = yield from self.llm.select_tool(
                goal="maximize campaign objective",
                tools=["bayesian-optimization", "random-search",
                       "grid-search"],
                preferred="bayesian-optimization")
            self._tool_choice = resp.content["tool"]
        params = self.optimizer.ask()
        self.plan_stats["optimizer_plans"] += 1
        return ExperimentPlan(params=dict(params), source="optimizer",
                              rationale="BO acquisition argmax",
                              plan_id=self._next_plan_id(),
                              grounded=True)

    def _llm_direct_plan(self):
        resp = yield from self.llm.propose_parameters(
            self.optimizer.space, self.optimizer.history,
            safety_envelope=self.safety_envelope)
        self.plan_stats["llm_plans"] += 1
        content = resp.content
        return ExperimentPlan(params=dict(content["params"]),
                              expected=dict(content.get("expected", {})),
                              source="llm",
                              rationale="LLM free-form proposal",
                              plan_id=self._next_plan_id(),
                              grounded=resp.grounded)

    def repair_plan(self, rejected: ExperimentPlan):
        """Generator: replace a verification-rejected plan.

        First repair falls back to the sound optimizer (M8's safety net).
        If an *optimizer* proposal was itself rejected (e.g. its
        acquisition is pinned against a forbidden region it cannot see),
        the repair diversifies to a random safe-space sample instead of
        re-asking for the same point forever.
        """
        self.plan_stats["repairs"] += 1
        if rejected.repaired or rejected.source.startswith("optimizer"):
            params = self.optimizer.space.sample(self.llm.rng)
            return ExperimentPlan(params=dict(params),
                                  source="optimizer-repair",
                                  rationale=f"diversified repair of "
                                            f"{rejected.plan_id}",
                                  plan_id=self._next_plan_id(),
                                  grounded=True, repaired=True)
        params = self.optimizer.ask()
        return ExperimentPlan(params=dict(params), source="optimizer-repair",
                              rationale=f"repair of {rejected.plan_id}",
                              plan_id=self._next_plan_id(),
                              grounded=True, repaired=True)
        yield  # pragma: no cover - marks this function as a generator

    # -- feedback ----------------------------------------------------------------------

    def observe(self, params: Mapping[str, Any], objective: float) -> None:
        self.optimizer.tell(params, objective)
