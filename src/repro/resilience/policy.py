"""Deterministic retry, deadline, and circuit-breaker policies.

The policy vocabulary of AISLE's reliability loops: RPC retries and
fault-tolerant execution run under a :class:`RetryPolicy` (through
:func:`~repro.resilience.executor.resilient_call`), and failover routing
and the fault-tolerant executor's primary route are guarded by
:class:`CircuitBreaker` objects.

- :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic* jitter (drawn from a named
  :class:`~repro.sim.rng.RngRegistry` stream, never wall-clock entropy);
- :class:`Deadline` — a monotone simulated-time budget shared across
  attempts, so cumulative-deadline semantics are one object, not
  re-derived arithmetic at every call site;
- :class:`CircuitBreaker` — the classic closed/open/half-open machine,
  driven entirely by the simulated clock, with registry-backed counters.

All times are simulated seconds; nothing here reads the wall clock, so
policies preserve the DESIGN.md determinism contract end to end.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import MetricsRegistry, StatsDict

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.sim.kernel import Simulator


class RetryPolicy:
    """Exponential backoff with bounded attempts and deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts allowed (first try included).
    base_delay_s:
        Pause before the first retry; 0 means retry immediately.
    multiplier:
        Geometric growth factor between consecutive retry pauses.
    max_delay_s:
        Cap on any single pause.
    jitter:
        Fractional jitter: each pause is scaled by a uniform factor in
        ``[1 - jitter, 1 + jitter]``.  Requires ``rng``.
    rng:
        Numpy generator for jitter draws — pass a **named** stream from
        :class:`~repro.sim.rng.RngRegistry` so jittered schedules are a
        pure function of ``(root seed, stream name)``.
    """

    __slots__ = ("max_attempts", "base_delay_s", "multiplier", "max_delay_s",
                 "jitter", "rng")

    def __init__(self, max_attempts: int = 3, *, base_delay_s: float = 0.05,
                 multiplier: float = 2.0, max_delay_s: float = math.inf,
                 jitter: float = 0.0,
                 rng: Optional["np.random.Generator"] = None) -> None:
        if max_attempts < 1:
            raise ValueError("need max_attempts >= 1")
        if base_delay_s < 0 or multiplier <= 0 or max_delay_s < 0:
            raise ValueError("delays must be >= 0 and multiplier > 0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng stream")
        self.max_attempts = int(max_attempts)
        self.base_delay_s = float(base_delay_s)
        self.multiplier = float(multiplier)
        self.max_delay_s = float(max_delay_s)
        self.jitter = float(jitter)
        self.rng = rng

    @classmethod
    def immediate(cls, max_attempts: int) -> "RetryPolicy":
        """Bounded attempts with no pause (the fault-tolerant executor's
        repair loop)."""
        return cls(max_attempts, base_delay_s=0.0)

    def should_retry(self, attempts_made: int) -> bool:
        """May another attempt follow after ``attempts_made`` tries?"""
        return attempts_made < self.max_attempts

    def delay(self, retry_index: int) -> float:
        """Pause (simulated seconds) before retry ``retry_index`` (1-based)."""
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        d = self.base_delay_s * self.multiplier ** (retry_index - 1)
        d = min(d, self.max_delay_s)
        if self.jitter > 0 and d > 0:
            d *= 1.0 + self.jitter * float(self.rng.uniform(-1.0, 1.0))
        return max(0.0, d)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RetryPolicy attempts={self.max_attempts} "
                f"base={self.base_delay_s}s x{self.multiplier}>")


class Deadline:
    """A simulated-time budget shared across every attempt of a call.

    The budget is *cumulative*: retries, backoff pauses, and in-flight
    attempts all spend from the same allowance, mirroring gRPC deadline
    semantics.
    """

    __slots__ = ("sim", "expires_at")

    def __init__(self, sim: "Simulator", budget_s: float = math.inf) -> None:
        if budget_s < 0:
            raise ValueError("deadline budget must be >= 0")
        self.sim = sim
        self.expires_at = sim.now + budget_s

    @property
    def expired(self) -> bool:
        return self.sim.now >= self.expires_at

    @property
    def finite(self) -> bool:
        return math.isfinite(self.expires_at)

    def remaining(self) -> float:
        """Budget left on the simulated clock (never negative)."""
        return max(0.0, self.expires_at - self.sim.now)

    def clamp(self, delay_s: float) -> float:
        """Trim a pause so it never outlives the budget."""
        return min(delay_s, self.remaining())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Deadline t={self.expires_at:.6g} left={self.remaining():.6g}>"


class CircuitState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitOpen(Exception):
    """The breaker rejected the call without attempting it."""


class CircuitBreaker:
    """Closed/open/half-open breaker driven by the simulated clock.

    Consecutive failures trip the breaker **open**; after
    ``recovery_time_s`` of simulated quarantine it admits one probe
    (**half-open**).  A probe success re-closes it, a probe failure
    re-opens it for another quarantine window.  All transitions are pure
    functions of recorded outcomes and ``sim.now``, so same-seed runs trip
    identically.

    Parameters
    ----------
    sim:
        Kernel (the clock that ages an open breaker into half-open).
    failure_threshold:
        Consecutive failures that trip a closed breaker.
    recovery_time_s:
        Quarantine length before a probe is admitted.
    name / metrics:
        Identity and registry for the ``resilience.breaker.*`` counters;
        the public :attr:`stats` mapping is a
        :class:`~repro.obs.metrics.StatsDict` view over them.
    """

    def __init__(self, sim: "Simulator", *, failure_threshold: int = 3,
                 recovery_time_s: float = 30.0, name: str = "breaker",
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if failure_threshold < 1:
            raise ValueError("need failure_threshold >= 1")
        self.sim = sim
        self.failure_threshold = int(failure_threshold)
        self.recovery_time_s = float(recovery_time_s)
        self.name = name
        self.metrics = metrics or MetricsRegistry()
        self.stats: StatsDict = self.metrics.stats(
            "resilience.breaker",
            {"successes": 0, "failures": 0, "trips": 0, "rejections": 0},
            breaker=name)
        self.events: list[tuple[float, str]] = []
        self._state = CircuitState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = -math.inf

    @property
    def state(self) -> CircuitState:
        """Current state; an aged-out OPEN lazily becomes HALF_OPEN."""
        if (self._state is CircuitState.OPEN
                and self.sim.now >= self._opened_at + self.recovery_time_s):
            self._transition(CircuitState.HALF_OPEN)
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  Counts rejections when not."""
        if self.state is CircuitState.OPEN:
            self.stats["rejections"] += 1
            return False
        return True

    def record_success(self) -> None:
        self.stats["successes"] += 1
        self._consecutive_failures = 0
        if self.state is not CircuitState.CLOSED:
            self._transition(CircuitState.CLOSED)

    def record_failure(self) -> None:
        self.stats["failures"] += 1
        state = self.state
        if state is CircuitState.HALF_OPEN:
            self._trip()  # failed probe: straight back to quarantine
        elif state is CircuitState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self.stats["trips"] += 1
        self._consecutive_failures = 0
        self._opened_at = self.sim.now
        self._transition(CircuitState.OPEN)

    def _transition(self, new: CircuitState) -> None:
        self._state = new
        self.events.append((self.sim.now, new.value))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CircuitBreaker {self.name!r} {self._state.value}>"
