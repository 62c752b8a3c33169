"""Unified resilience kernel: retry, deadline, breaker, and chaos (M3/M11).

The paper's "adaptive fault-tolerant coordination" (M3) and "automatic
failover" (M11) are reproduced by a few reliability loops.  This package
holds the deterministic policy engine and fault injection they use:

- :mod:`repro.resilience.policy` —
  :class:`~repro.resilience.policy.RetryPolicy` (exponential backoff,
  deterministic jitter from named RNG streams),
  :class:`~repro.resilience.policy.Deadline` (monotone sim-clock budget),
  and :class:`~repro.resilience.policy.CircuitBreaker`
  (closed/open/half-open, driven by sim time);
- :mod:`repro.resilience.executor` —
  :func:`~repro.resilience.executor.resilient_call`, the generator
  combinator wrapping any sim-process callable with policy + breaker +
  per-attempt tracing spans and registry counters;
- :mod:`repro.resilience.faults` —
  :class:`~repro.resilience.faults.ChaosController`, one scenario API
  over network, instrument, and agent failure injection.

Consumers: :class:`~repro.comm.rpc.RpcClient` call retries and
:class:`~repro.core.faulttol.FaultTolerantExecutor` repair/failover run
through :func:`resilient_call` under a :class:`RetryPolicy`.  Three loops
need none of it: :class:`~repro.comm.failover.FailoverGroup` promotes past
a replica after ``heartbeat_misses`` consecutive missed probes,
:class:`~repro.comm.bus.Queue` redelivers a nacked message at once, up to
``max_attempts`` deliveries, and :class:`~repro.agents.lifecycle.Supervisor`
waits a fixed ``restart_delay_s`` before each restart.
"""

from repro.resilience.executor import (DeadlineExceeded, RetriesExhausted,
                                       resilient_call)
from repro.resilience.faults import ChaosController
from repro.resilience.policy import (CircuitBreaker, CircuitOpen,
                                     CircuitState, Deadline, RetryPolicy)

__all__ = [
    "ChaosController",
    "CircuitBreaker",
    "CircuitOpen",
    "CircuitState",
    "Deadline",
    "DeadlineExceeded",
    "RetriesExhausted",
    "RetryPolicy",
    "resilient_call",
]
