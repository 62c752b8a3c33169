"""Tabular Q-learning for dynamic experimental scheduling (§3.3).

"Reinforcement learning for dynamic experimental scheduling."  The
scheduler learns which resource to route the next experiment to (e.g. a
fast but contended reactor vs. a slow dedicated one) from a discretized
campaign state; the caller chooses the state keys (any hashable).  States
and actions are deliberately small and discrete — tabular RL is the right
tool at lab scale, and it is fully deterministic given the RNG.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np


class QLearningScheduler:
    """Epsilon-greedy tabular Q-learning over (state, action).

    Parameters
    ----------
    actions:
        The routing choices, e.g. ``("flow", "batch", "simulate")``.
    rng:
        Random stream for exploration.
    alpha / epsilon:
        Learning rate and initial exploration rate; ``epsilon`` decays by
        ``EPSILON_DECAY`` per update, down to ``MIN_EPSILON``.
    """

    #: Discount of the next state's value.
    GAMMA = 0.9
    EPSILON_DECAY = 0.995
    MIN_EPSILON = 0.02

    def __init__(self, actions: Sequence[str], rng: np.random.Generator, *,
                 alpha: float = 0.2, epsilon: float = 0.3) -> None:
        if not actions:
            raise ValueError("need at least one action")
        self.actions = tuple(actions)
        self.rng = rng
        self.alpha = alpha
        self.epsilon = epsilon
        self._q: dict[tuple[Hashable, str], float] = {}
        self.stats = {"updates": 0, "explorations": 0}

    def q(self, state: Hashable, action: str) -> float:
        return self._q.get((state, action), 0.0)

    def choose(self, state: Hashable,
               available: Optional[Sequence[str]] = None) -> str:
        """Epsilon-greedy action choice (ties broken at random)."""
        options = self.actions if available is None else tuple(available)
        if not options:
            raise ValueError("no available actions")
        if self.rng.random() < self.epsilon:
            self.stats["explorations"] += 1
            return str(self.rng.choice(list(options)))
        values = np.array([self.q(state, a) for a in options])
        best = np.flatnonzero(values == values.max())
        return options[int(self.rng.choice(best))]

    def update(self, state: Hashable, action: str, reward: float,
               next_state: Optional[Hashable] = None) -> None:
        """One-step Q update; pass ``next_state=None`` for terminal steps."""
        self.stats["updates"] += 1
        future = 0.0
        if next_state is not None:
            future = max(self.q(next_state, a) for a in self.actions)
        old = self.q(state, action)
        self._q[(state, action)] = old + self.alpha * (
            reward + self.GAMMA * future - old)
        self.epsilon = max(self.MIN_EPSILON,
                           self.epsilon * self.EPSILON_DECAY)

    def policy(self, state: Hashable) -> str:
        """Greedy action (no exploration) — for inspection and tests."""
        values = [self.q(state, a) for a in self.actions]
        return self.actions[int(np.argmax(values))]
