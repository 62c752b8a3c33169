"""The evaluator agent: judges outcomes and steers the campaign.

Closes the autonomous loop: converts executor outcomes into optimizer
updates, tracks the incumbent, and decides when the campaign has
converged or should stop — the Evaluator role of the CellAgent-style
Planner/Executor/Evaluator decomposition the paper cites (§3.1, [35]).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.agents.base import Agent
from repro.agents.executor import ExperimentOutcome
from repro.agents.planner import PlannerAgent


class EvaluatorAgent(Agent):
    """Scores outcomes, updates the planner's optimizer, detects convergence.

    Parameters
    ----------
    planner:
        The planner whose optimizer learns from outcomes.
    """

    #: Optional objective value that ends the campaign when reached.
    target: Optional[float] = None
    #: Experiments without meaningful improvement before convergence is
    #: declared (``None`` disables early stopping).
    patience: Optional[int] = None
    #: Improvement below this counts as "no progress".
    min_improvement = 1e-3

    def __init__(self, sim, name: str, site: str,
                 planner: PlannerAgent) -> None:
        super().__init__(sim, name, site)
        self.planner = planner
        self.best_value: Optional[float] = None
        self.best_params: Optional[dict[str, Any]] = None
        self._stale = 0
        self.eval_stats = {"evaluated": 0, "accepted": 0, "discarded": 0}

    def evaluate(self, outcome: ExperimentOutcome) -> dict[str, Any]:
        """Digest one outcome; returns a verdict dict.

        Invalid outcomes are *discarded* (never fed to the optimizer —
        their parameters may not even encode) but still count toward
        patience: a campaign burning its budget on garbage is not
        progressing.
        """
        self.eval_stats["evaluated"] += 1
        if not outcome.valid or outcome.objective is None:
            self.eval_stats["discarded"] += 1
            self._stale += 1
            return {"accepted": False, "improved": False,
                    "converged": self._converged(), "reason": outcome.failure}

        self.eval_stats["accepted"] += 1
        self.planner.observe(outcome.plan.params, outcome.objective)
        improved = (self.best_value is None
                    or outcome.objective > self.best_value
                    + self.min_improvement)
        if self.best_value is None or outcome.objective > self.best_value:
            self.best_value = outcome.objective
            self.best_params = dict(outcome.plan.params)
        self._stale = 0 if improved else self._stale + 1
        return {"accepted": True, "improved": improved,
                "converged": self._converged(),
                "target_reached": (self.target is not None
                                   and self.best_value >= self.target)}

    def _converged(self) -> bool:
        return self.patience is not None and self._stale >= self.patience
