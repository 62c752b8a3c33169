"""Fair-share + deadline scheduling over shared facility slots.

Two policies, one interface:

- :class:`FairShareScheduler` — deterministic weighted fair queuing.
  Each tenant carries a *virtual time* that advances by
  ``cost / share`` whenever one of its campaigns is dispatched; the
  scheduler always serves the eligible backlogged tenant with the
  smallest virtual time, so long-run throughput converges to the share
  weights regardless of who floods the queue.  Within a tenant, entries
  are ordered by ``(-priority, deadline, submission order)`` — i.e.
  priority first, then earliest-deadline-first.  An optional *urgency
  window* lets a deadline preempt fair order across tenants when it is
  about to lapse.
- :class:`RLFairShareScheduler` — the A1 tabular Q-learning router
  (:class:`repro.methods.rl_scheduler.QLearningScheduler`) extended to
  the multi-tenant case: the learned action is *which tenant to serve
  next*, the state is the discretized
  :class:`~repro.methods.rl_scheduler.MultiTenantSchedulingState`
  (backlog, fairness debt, deadline urgency), and the reward favors low
  queue wait and low virtual-time spread.  Fully deterministic given
  its RNG.

Everything is sim-time only: ties break on the monotonically increasing
submission sequence, never on wall time or object identity, so two
same-seed service runs produce identical dispatch sequences.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.methods.rl_scheduler import (MultiTenantSchedulingState,
                                        QLearningScheduler)
from repro.service.handle import CampaignHandle

_INF = float("inf")


@dataclass(order=True)
class QueueEntry:
    """One queued campaign, ordered ``(-priority, deadline, seq)``."""

    sort_key: tuple = field(init=False, repr=False)
    seq: int = field(compare=False)
    tenant: str = field(compare=False)
    handle: CampaignHandle = field(compare=False)
    cost: float = field(compare=False)
    priority: int = field(compare=False, default=0)
    deadline: Optional[float] = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)

    def __post_init__(self) -> None:
        self.sort_key = (-self.priority,
                         self.deadline if self.deadline is not None else _INF,
                         self.seq)


class FairShareScheduler:
    """Deterministic weighted-fair-queuing + EDF campaign scheduler.

    Parameters
    ----------
    deadline_urgency_s:
        When > 0, an eligible head-of-queue entry whose deadline falls
        within ``now + deadline_urgency_s`` is served ahead of fair
        order (earliest such deadline first).  0 disables preemption —
        deadlines then only order entries *within* a tenant.
    """

    def __init__(self, *, deadline_urgency_s: float = 0.0) -> None:
        if deadline_urgency_s < 0:
            raise ValueError("deadline_urgency_s must be >= 0")
        self.deadline_urgency_s = deadline_urgency_s
        self._queues: dict[str, list[QueueEntry]] = {}
        self._vtime: dict[str, float] = {}
        self._shares: dict[str, float] = {}
        self._vfloor = 0.0
        self.stats = {"dispatched": 0, "urgent_dispatches": 0,
                      "cancelled": 0}

    # -- registration ------------------------------------------------------

    def register(self, tenant: str, share: float = 1.0) -> None:
        """Declare a tenant and its fair-share weight (idempotent)."""
        if not share > 0:
            raise ValueError("share must be > 0")
        if tenant not in self._queues:
            self._queues[tenant] = []
            self._vtime[tenant] = self._vfloor
        self._shares[tenant] = float(share)

    @property
    def tenants(self) -> list[str]:
        """Registered tenants, in registration order."""
        return list(self._queues)  # a dict keeps insertion order

    def virtual_time(self, tenant: str) -> float:
        return self._vtime[tenant]

    # -- queue operations --------------------------------------------------

    def enqueue(self, entry: QueueEntry) -> None:
        queue = self._queues[entry.tenant]
        if not queue:
            # A tenant returning from idle must not spend banked credit:
            # rejoin at the current virtual floor, not at its stale time.
            self._vtime[entry.tenant] = max(self._vtime[entry.tenant],
                                            self._vfloor)
        heapq.heappush(queue, entry)

    def remove(self, entry: QueueEntry) -> bool:
        """Lazily cancel a queued entry (skipped when it surfaces)."""
        if entry.cancelled:
            return False
        entry.cancelled = True
        self.stats["cancelled"] += 1
        return True

    def backlog(self, tenant: Optional[str] = None) -> int:
        """Live queued entries for one tenant (or all)."""
        if tenant is not None:
            return sum(1 for e in self._queues[tenant] if not e.cancelled)
        return sum(self.backlog(t) for t in self._queues)

    def _prune(self, tenant: str) -> Optional[QueueEntry]:
        """Head of a tenant's queue after dropping cancelled entries."""
        queue = self._queues[tenant]
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
        return queue[0] if queue else None

    # -- dispatch ----------------------------------------------------------

    def select(self, now: float,
               eligible: Callable[[str], bool]) -> Optional[QueueEntry]:
        """Pop the next entry to run, or ``None`` when nothing is runnable.

        ``eligible(tenant)`` gates tenants (the service passes the
        in-flight quota check); ineligible tenants keep their queues.
        """
        heads: list[tuple[str, QueueEntry]] = []
        for tenant in self._queues:  # registration order
            head = self._prune(tenant)
            if head is not None and eligible(tenant):
                heads.append((tenant, head))
        if not heads:
            return None

        chosen = self._pick(now, heads)
        return self._dispatch(chosen)

    def _pick(self, now: float,
              heads: list[tuple[str, QueueEntry]]) -> str:
        """Fair-share choice with optional deadline-urgency preemption."""
        if self.deadline_urgency_s > 0:
            urgent = [(e.deadline, e.seq, t) for t, e in heads
                      if e.deadline is not None
                      and e.deadline <= now + self.deadline_urgency_s]
            if urgent:
                self.stats["urgent_dispatches"] += 1
                return min(urgent)[2]
        # Heads come in registration order and min keeps the first of
        # equal keys, so a virtual-time tie goes to the earliest tenant.
        return min(heads, key=lambda te: self._vtime[te[0]])[0]

    def _dispatch(self, tenant: str) -> QueueEntry:
        entry = heapq.heappop(self._queues[tenant])
        before = self._vtime[tenant]
        self._vtime[tenant] = before + entry.cost / self._shares[tenant]
        self._vfloor = max(self._vfloor, before)
        self.stats["dispatched"] += 1
        return entry

    def fairness_debt(self) -> float:
        """Spread of backlogged tenants' virtual times (0 = balanced)."""
        vts = [self._vtime[t] for t in self._queues if self.backlog(t) > 0]
        if len(vts) < 2:
            return 0.0
        return max(vts) - min(vts)


class RLFairShareScheduler(FairShareScheduler):
    """The A1 Q-learning router, promoted to multi-tenant slot routing.

    Actions are the registered tenants; each :meth:`select` discretizes
    the service state, asks the tabular agent which eligible tenant to
    serve, and rewards it immediately with low head-of-queue wait and
    low fairness debt.  Virtual times are still charged on dispatch so
    the fairness-debt signal (and :meth:`fairness_debt`) stays
    meaningful, and the urgency window still preempts for deadlines.

    Parameters
    ----------
    rng:
        Seeded generator for epsilon-greedy exploration — the only
        randomness; same seed, same dispatch sequence.
    wait_scale_s:
        Normalizes queue-wait in the reward (a head waiting this long
        costs reward -1).
    """

    def __init__(self, rng: np.random.Generator, *,
                 deadline_urgency_s: float = 0.0,
                 wait_scale_s: float = 3600.0,
                 alpha: float = 0.2, gamma: float = 0.9,
                 epsilon: float = 0.2) -> None:
        super().__init__(deadline_urgency_s=deadline_urgency_s)
        self._rng = rng
        self._wait_scale_s = float(wait_scale_s)
        self._agent_kw = {"alpha": alpha, "gamma": gamma, "epsilon": epsilon}
        self._agent: Optional[QLearningScheduler] = None
        self._last: Optional[tuple[MultiTenantSchedulingState, str]] = None

    def _ensure_agent(self) -> QLearningScheduler:
        # Actions are fixed at first dispatch; registering tenants after
        # traffic starts would change the action space under the table.
        if self._agent is None:
            self._agent = QLearningScheduler(self.tenants, self._rng,
                                             **self._agent_kw)
        return self._agent

    def _state(self, now: float) -> MultiTenantSchedulingState:
        slack = _INF
        for tenant in self.tenants:
            head = self._prune(tenant)
            if head is not None and head.deadline is not None:
                slack = min(slack, head.deadline - now)
        return MultiTenantSchedulingState.discretize(
            total_backlog=self.backlog(),
            fairness_debt=self.fairness_debt(),
            min_deadline_slack_s=slack)

    def _pick(self, now: float,
              heads: list[tuple[str, QueueEntry]]) -> str:
        if self.deadline_urgency_s > 0:
            urgent = [(e.deadline, e.seq, t) for t, e in heads
                      if e.deadline is not None
                      and e.deadline <= now + self.deadline_urgency_s]
            if urgent:
                self.stats["urgent_dispatches"] += 1
                return min(urgent)[2]
        agent = self._ensure_agent()
        state = self._state(now)
        available = [t for t, _ in heads]
        by_tenant = dict(heads)
        if self._last is not None:
            # Reward the previous routing decision with what the queue
            # looks like now: long head waits and fairness debt are bad.
            prev_state, prev_action = self._last
            wait = max((now - e.handle.submitted_at
                        for _, e in heads), default=0.0)
            reward = -(wait / self._wait_scale_s) \
                - 0.1 * min(self.fairness_debt(), 10.0)
            agent.update(prev_state, prev_action, reward, state)
        action = agent.choose(state, available=available)
        self._last = (state, action)
        assert action in by_tenant
        return action
