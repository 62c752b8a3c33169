"""resilient_call: the one attempt loop every reliability layer shares."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.resilience import (CircuitBreaker, CircuitOpen, Deadline,
                              DeadlineExceeded, RetriesExhausted, RetryPolicy,
                              resilient_call)
from repro.sim import Simulator


class Flaky(Exception):
    pass


def run(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


def flaky_then_ok(sim, fail_times, *, duration_s=0.0,
                  exc_type=Flaky, attempts_seen=None):
    """Attempt factory failing the first ``fail_times`` tries."""

    def attempt(n):
        if attempts_seen is not None:
            attempts_seen.append((sim.now, n))
        if duration_s > 0:
            yield sim.timeout(duration_s)
        if n <= fail_times:
            raise exc_type(f"attempt {n}")
        return f"ok@{n}"
        yield  # pragma: no cover - make non-delayed variants generators

    return attempt


def test_retry_then_succeed_with_backoff(sim):
    seen = []
    policy = RetryPolicy(5, base_delay_s=1.0, multiplier=2.0)

    def driver():
        result = yield from resilient_call(
            sim, flaky_then_ok(sim, 2, attempts_seen=seen), policy=policy)
        return result

    assert run(sim, driver()) == "ok@3"
    # Attempts at t=0, t=1 (base), t=3 (base*2 later).
    assert seen == [(0.0, 1), (1.0, 2), (3.0, 3)]


def test_non_retryable_exception_propagates(sim):
    policy = RetryPolicy(5, base_delay_s=0.0)

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 99, exc_type=KeyError), policy=policy,
            retry_on=(Flaky,))

    with pytest.raises(KeyError):
        run(sim, driver())


def test_retries_exhausted_carries_last_error(sim):
    policy = RetryPolicy(3, base_delay_s=0.0)

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 99), policy=policy, name="doomed")

    with pytest.raises(RetriesExhausted) as ei:
        run(sim, driver())
    assert ei.value.attempts == 3
    assert isinstance(ei.value.last_error, Flaky)
    assert "doomed" in str(ei.value)


def test_deadline_interrupts_in_flight_attempt(sim):
    policy = RetryPolicy(1)

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 0, duration_s=10.0), policy=policy,
            deadline=Deadline(sim, 0.5))

    with pytest.raises(DeadlineExceeded):
        run(sim, driver())
    assert sim.now == pytest.approx(0.5)


def test_deadline_caps_backoff_and_stops_loop(sim):
    seen = []
    policy = RetryPolicy(100, base_delay_s=4.0)

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 99, duration_s=0.25, attempts_seen=seen),
            policy=policy, deadline=Deadline(sim, 1.0))

    with pytest.raises(RetriesExhausted):
        run(sim, driver())
    # First attempt at 0 (fails at 0.25); backoff clamped to the remaining
    # 0.75 budget, after which the deadline closes the loop.
    assert seen == [(0.0, 1)]
    assert sim.now == pytest.approx(1.0)


def test_open_breaker_short_circuits(sim):
    breaker = CircuitBreaker(sim, failure_threshold=1, recovery_time_s=60.0)
    breaker.record_failure()  # trip it
    calls = []

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 0, attempts_seen=calls),
            policy=RetryPolicy(3), breaker=breaker)

    with pytest.raises(CircuitOpen):
        run(sim, driver())
    assert calls == []  # never attempted


def test_breaker_records_outcomes(sim):
    breaker = CircuitBreaker(sim, failure_threshold=10)

    def driver():
        result = yield from resilient_call(
            sim, flaky_then_ok(sim, 2), policy=RetryPolicy(5, base_delay_s=0),
            breaker=breaker)
        return result

    assert run(sim, driver()) == "ok@3"
    assert breaker.stats["failures"] == 2
    assert breaker.stats["successes"] == 1


def test_recover_hook_runs_before_each_retry(sim):
    recovered = []

    def recover(exc, next_attempt):
        recovered.append((sim.now, str(exc), next_attempt))
        yield sim.timeout(5.0)

    def driver():
        result = yield from resilient_call(
            sim, flaky_then_ok(sim, 1),
            policy=RetryPolicy(3, base_delay_s=0.0), recover=recover)
        return result

    assert run(sim, driver()) == "ok@2"
    assert recovered == [(0.0, "attempt 1", 2)]
    assert sim.now == pytest.approx(5.0)


def test_registry_counters_and_on_retry(sim):
    reg = MetricsRegistry()
    retries = []

    def driver():
        result = yield from resilient_call(
            sim, flaky_then_ok(sim, 2),
            policy=RetryPolicy(5, base_delay_s=0.0), name="unit",
            metrics=reg, on_retry=lambda n, exc: retries.append(n))
        return result

    run(sim, driver())
    snap = reg.snapshot()["counters"]
    assert snap["resilience.call.calls{call=unit}"] == 1
    assert snap["resilience.call.attempts{call=unit}"] == 3
    assert snap["resilience.call.retries{call=unit}"] == 2
    assert snap["resilience.call.successes{call=unit}"] == 1
    assert snap["resilience.call.failures{call=unit}"] == 0
    assert retries == [2, 3]


def test_attempts_run_inside_tracer_spans(sim):
    tracer = Tracer(sim, run_id="t")

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 1),
            policy=RetryPolicy(3, base_delay_s=0.0), name="traced",
            tracer=tracer)

    run(sim, driver())
    starts = [e for e in tracer.events
              if e.kind == "span-start" and e.name == "resilience.attempt"]
    assert [e.attrs["attempt"] for e in starts] == [1, 2]
    assert all(e.attrs["call"] == "traced" for e in starts)


# -- counters bound once per call name ----------------------------------------

class _CountingRegistry(MetricsRegistry):
    """Records every ``counter`` lookup as (name, call label)."""

    def __init__(self):
        super().__init__()
        self.lookups = []

    def counter(self, name, **labels):
        self.lookups.append((name, labels.get("call")))
        return super().counter(name, **labels)


class _PerCallRegistry(MetricsRegistry):
    """Looks the handles up again on every call (no binding)."""

    def bound(self, key, bind):
        return bind()


_SEVEN = sorted(f"resilience.call.{key}" for key in (
    "calls", "attempts", "retries", "successes", "failures",
    "deadline_exceeded", "breaker_rejected"))


def _mixed_calls(sim, reg):
    """Every exit of resilient_call, twice per name, on one registry."""
    open_breaker = CircuitBreaker(sim, failure_threshold=1,
                                  recovery_time_s=1e9)
    open_breaker.record_failure()
    outcomes = []

    def one(name, attempt, **kw):
        try:
            result = yield from resilient_call(
                sim, attempt, policy=RetryPolicy(3, base_delay_s=0.1),
                name=name, metrics=reg, **kw)
            outcomes.append((name, sim.now, result))
        except (CircuitOpen, DeadlineExceeded, RetriesExhausted) as exc:
            outcomes.append((name, sim.now, type(exc).__name__))

    def driver():
        for _ in range(2):
            yield from one("rejected", flaky_then_ok(sim, 0),
                           breaker=open_breaker)
            yield from one("expired", flaky_then_ok(sim, 0),
                           deadline=Deadline(sim, 0.0))
            yield from one("flaky", flaky_then_ok(sim, 1))
            yield from one("doomed", flaky_then_ok(sim, 99))
            yield from one("slow", flaky_then_ok(sim, 0, duration_s=5.0),
                           deadline=Deadline(sim, 1.0))

    run(sim, driver())
    return outcomes


def test_first_call_of_a_name_binds_its_seven_counters():
    reg = _CountingRegistry()
    outcomes = _mixed_calls(Simulator(), reg)
    assert [o[2] for o in outcomes[:5]] == [
        "CircuitOpen", "RetriesExhausted", "ok@2", "RetriesExhausted",
        "DeadlineExceeded"]
    names = ["rejected", "expired", "flaky", "doomed", "slow"]
    # The first call of each name creates all seven counters, whichever
    # way it ends (a rejected breaker and an expired deadline included);
    # the second call of each name looks none up.
    assert sorted(reg.lookups) == sorted(
        (metric, name) for name in names for metric in _SEVEN)
    for name in names:
        assert sorted(n for n, call in reg.lookups if call == name) == _SEVEN
    snap = reg.snapshot()["counters"]
    assert snap["resilience.call.calls{call=rejected}"] == 2
    assert snap["resilience.call.breaker_rejected{call=rejected}"] == 2
    assert snap["resilience.call.failures{call=expired}"] == 2
    assert snap["resilience.call.attempts{call=expired}"] == 0
    assert snap["resilience.call.retries{call=flaky}"] == 2
    assert snap["resilience.call.deadline_exceeded{call=slow}"] == 2


def test_bound_counters_leave_the_registry_state_of_per_call_lookups():
    bound, per_call = MetricsRegistry(), _PerCallRegistry()
    assert _mixed_calls(Simulator(), bound) == _mixed_calls(Simulator(),
                                                            per_call)
    assert bound.state() == per_call.state()
