"""Fair-share + deadline scheduling over shared facility slots.

:class:`FairShareScheduler` is deterministic weighted fair queuing.  Each
tenant carries a *virtual time* that advances by ``cost / share``
whenever one of its campaigns is dispatched; the scheduler always serves
the eligible backlogged tenant with the smallest virtual time, so
long-run throughput converges to the share weights regardless of who
floods the queue.  Within a tenant, entries are ordered by
``(-priority, deadline, submission order)`` — i.e. priority first, then
earliest-deadline-first.  Deadlines order entries only within a tenant;
across tenants, fair order decides.

Everything is sim-time only: ties break on the monotonically increasing
submission sequence, never on wall time or object identity, so two
same-seed service runs produce identical dispatch sequences.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    """Deterministic weighted-fair-queuing + EDF campaign scheduler."""

    def __init__(self) -> None:
        self._queues: dict[str, list[QueueEntry]] = {}
        self._vtime: dict[str, float] = {}
        self._shares: dict[str, float] = {}
        self._vfloor = 0.0
        self.stats = {"dispatched": 0, "cancelled": 0}

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

    def _prune(self, tenant: str) -> Optional[QueueEntry]:
        """Head of a tenant's queue after dropping cancelled entries."""
        queue = self._queues[tenant]
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
        return queue[0] if queue else None

    # -- dispatch ----------------------------------------------------------

    def select(self,
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

        # Heads come in registration order and min keeps the first of
        # equal keys, so a virtual-time tie goes to the earliest tenant.
        chosen = min(heads, key=lambda te: self._vtime[te[0]])[0]
        return self._dispatch(chosen)

    def _dispatch(self, tenant: str) -> QueueEntry:
        entry = heapq.heappop(self._queues[tenant])
        before = self._vtime[tenant]
        self._vtime[tenant] = before + entry.cost / self._shares[tenant]
        self._vfloor = max(self._vfloor, before)
        self.stats["dispatched"] += 1
        return entry
