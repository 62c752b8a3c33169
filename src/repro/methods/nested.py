"""Nested discrete-continuous Bayesian optimization (§3.3, ref [24]).

"Autonomous frameworks leverage nested discrete-continuous Bayesian
optimization strategies that reflect real-world experimental constraints
... improving optimization efficiency by structuring search spaces to
reflect hardware constraints."

The outer loop is a UCB bandit over discrete chemistry combinations; the
inner loop is one continuous-space GP optimizer per visited combination.
This matches how fluidic SDL hardware actually works: switching chemistry
(outer) is expensive, sweeping process knobs (inner) is cheap — and it is
what lets a campaign navigate a 10^13-condition space (E12).
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional

import numpy as np

from repro.labsci.landscapes import ParameterSpace
from repro.methods.baselines import AskTellOptimizer
from repro.methods.bayesopt import BayesianOptimizer


class _ComboArm:
    """Bandit statistics + inner optimizer for one discrete combination."""

    def __init__(self, inner: BayesianOptimizer) -> None:
        self.inner = inner
        self.pulls = 0
        self.best_value = -math.inf


class NestedBayesianOptimizer(AskTellOptimizer):
    """UCB-over-chemistries outer loop, per-chemistry GP inner loop.

    Parameters
    ----------
    space:
        Mixed parameter space; its discrete dims define the arms.
    rng:
        Random stream.
    arm_subset:
        Newly considered arms per round: the full cross product can be
        huge (8*8*4*5 = 1280 for quantum dots), so unvisited arms are
        sampled rather than enumerated.
    acquisition:
        Acquisition of each per-combo :class:`BayesianOptimizer`.
    """

    #: UCB exploration weight on the outer bandit.
    EXPLORATION = 0.4
    #: Subtracted from the UCB score of arms other than the current one,
    #: reflecting the hardware cost of switching chemistry.
    SWITCH_PENALTY = 0.02
    #: Random asks, and candidate pool size, of each inner optimizer.
    INNER_N_INIT = 4
    INNER_N_CANDIDATES = 256

    def __init__(self, space: ParameterSpace, rng: np.random.Generator, *,
                 arm_subset: int = 24, acquisition: str = "ei") -> None:
        super().__init__(space)
        if not space.discrete:
            raise ValueError(
                "NestedBayesianOptimizer needs at least one discrete dim; "
                "use BayesianOptimizer for purely continuous spaces")
        self.rng = rng
        self.arm_subset = arm_subset
        self.acquisition = acquisition
        self._arms: dict[tuple[str, ...], _ComboArm] = {}
        self._current_arm: Optional[tuple[str, ...]] = None
        # The continuous-only subspace shared by all inner optimizers.
        self._cont_space = ParameterSpace(space.continuous)

    # -- arm management ------------------------------------------------------------

    def _get_arm(self, key: tuple[str, ...]) -> _ComboArm:
        arm = self._arms.get(key)
        if arm is None:
            inner = BayesianOptimizer(self._cont_space, self.rng,
                                      acquisition=self.acquisition,
                                      n_init=self.INNER_N_INIT,
                                      n_candidates=self.INNER_N_CANDIDATES)
            arm = _ComboArm(inner)
            self._arms[key] = arm
        return arm

    def _candidate_arms(self) -> list[tuple[str, ...]]:
        """Visited arms plus a random sample of fresh chemistry combos."""
        fresh = []
        for _ in range(self.arm_subset):
            params = self.space.sample(self.rng)
            key = self.space.discrete_key(params)
            if key not in self._arms:
                fresh.append(key)
        return list(self._arms) + fresh

    def _ucb(self, key: tuple[str, ...], total_pulls: int) -> float:
        arm = self._arms.get(key)
        if arm is None or arm.pulls == 0:
            # Prior draw for unvisited chemistries, calibrated to the
            # heavy-tailed combo-quality prior (most chemistries are
            # mediocre): optimistic enough to keep exploring early, not
            # so optimistic that a good arm never gets exploited.
            prior = 0.15 + 0.35 * float(self.rng.random())
            if arm is not None and arm.best_value > float("-inf"):
                # Donated cross-site knowledge about this chemistry: an
                # unvisited-but-vouched-for arm jumps the queue (M9).
                return max(prior, arm.best_value)
            return prior
        bonus = self.EXPLORATION * math.sqrt(
            math.log(max(total_pulls, 2)) / arm.pulls)
        score = arm.best_value + bonus
        if key != self._current_arm:
            score -= self.SWITCH_PENALTY
        return score

    # -- ask/tell ---------------------------------------------------------------------

    def ask(self) -> dict[str, Any]:
        total = sum(a.pulls for a in self._arms.values())
        arms = self._candidate_arms()
        key = max(arms, key=lambda k: self._ucb(k, total))
        self._current_arm = key
        arm = self._get_arm(key)
        cont = arm.inner.ask()
        return self.space.with_discrete(key, cont)

    def tell(self, params: Mapping[str, Any], objective: float) -> None:
        super().tell(params, objective)
        key = self.space.discrete_key(params)
        arm = self._get_arm(key)
        arm.pulls += 1
        arm.best_value = max(arm.best_value, objective)
        cont = {d.name: params[d.name] for d in self.space.continuous}
        arm.inner.tell(cont, objective)

    def absorb(self, params: Mapping[str, Any], objective: float) -> None:
        """Donate an external observation to the matching arm."""
        key = self.space.discrete_key(params)
        arm = self._get_arm(key)
        arm.best_value = max(arm.best_value, objective)
        cont = {d.name: params[d.name] for d in self.space.continuous}
        arm.inner.absorb(cont, objective)

    # -- introspection -----------------------------------------------------------------------

    @property
    def n_arms_visited(self) -> int:
        return sum(1 for a in self._arms.values() if a.pulls > 0)

    def arm_summary(self) -> list[tuple[tuple[str, ...], int, float]]:
        """(combo, pulls, best) per visited arm, best first."""
        rows = [(k, a.pulls, a.best_value)
                for k, a in self._arms.items() if a.pulls > 0]
        return sorted(rows, key=lambda r: -r[2])
