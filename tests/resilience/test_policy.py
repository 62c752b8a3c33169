"""RetryPolicy / Deadline / CircuitBreaker unit behaviour."""

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.resilience import CircuitBreaker, CircuitState, Deadline, RetryPolicy
from repro.sim.rng import RngRegistry


class TestRetryPolicy:
    def test_exponential_schedule(self):
        p = RetryPolicy(5, base_delay_s=0.1, multiplier=2.0)
        assert [p.delay(i) for i in (1, 2, 3, 4)] == [0.1, 0.2, 0.4, 0.8]

    def test_cap(self):
        p = RetryPolicy(10, base_delay_s=1.0, multiplier=10.0, max_delay_s=5.0)
        assert p.delay(1) == 1.0
        assert p.delay(2) == 5.0
        assert p.delay(5) == 5.0

    def test_attempt_budget(self):
        p = RetryPolicy(3)
        assert p.should_retry(0) and p.should_retry(2)
        assert not p.should_retry(3)

    def test_immediate_has_no_pause(self):
        p = RetryPolicy.immediate(4)
        assert p.delay(1) == 0.0 and p.delay(3) == 0.0
        assert not p.should_retry(4)

    def test_jitter_needs_rng(self):
        with pytest.raises(ValueError):
            RetryPolicy(3, jitter=0.2)

    def test_jitter_is_deterministic_per_stream(self):
        def delays(seed):
            rng = RngRegistry(seed).stream("retry/test")
            p = RetryPolicy(9, base_delay_s=1.0, jitter=0.5, rng=rng)
            return [p.delay(i) for i in range(1, 8)]

        a, b = delays(11), delays(11)
        assert a == b
        assert delays(11) != delays(12)
        # Jitter stays inside the documented band.
        p = RetryPolicy(9, base_delay_s=1.0, multiplier=1.0, jitter=0.5,
                        rng=RngRegistry(0).stream("retry/band"))
        for i in range(1, 50):
            assert 0.5 <= p.delay(i) <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(0)
        with pytest.raises(ValueError):
            RetryPolicy(3, base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(3).delay(0)


class TestDeadline:
    def test_budget_accounting(self, sim):
        d = Deadline(sim, 5.0)
        assert not d.expired and d.finite
        assert d.remaining() == 5.0
        assert d.clamp(10.0) == 5.0
        assert d.clamp(2.0) == 2.0
        sim.schedule_callback(5.0, lambda: None)
        sim.run()
        assert d.expired and d.remaining() == 0.0

    def test_infinite_budget(self, sim):
        d = Deadline(sim)
        assert not d.finite
        assert d.remaining() == math.inf
        assert d.clamp(3.0) == 3.0


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self, sim):
        br = CircuitBreaker(sim, failure_threshold=3)
        br.record_failure()
        br.record_failure()
        assert br.state is CircuitState.CLOSED
        br.record_failure()
        assert br.state is CircuitState.OPEN
        assert not br.allow()
        assert br.stats["trips"] == 1
        assert br.stats["rejections"] == 1

    def test_success_resets_the_count(self, sim):
        br = CircuitBreaker(sim, failure_threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state is CircuitState.CLOSED

    def test_half_open_probe_cycle(self, sim):
        br = CircuitBreaker(sim, failure_threshold=1, recovery_time_s=10.0)
        br.record_failure()
        assert br.state is CircuitState.OPEN
        sim.schedule_callback(10.0, lambda: None)
        sim.run()
        assert br.state is CircuitState.HALF_OPEN
        assert br.allow()
        # A failed probe goes straight back to quarantine...
        br.record_failure()
        assert br.state is CircuitState.OPEN
        sim.schedule_callback(10.0, lambda: None)
        sim.run()
        # ...and a successful probe re-closes.
        assert br.state is CircuitState.HALF_OPEN
        br.record_success()
        assert br.state is CircuitState.CLOSED

    def test_stats_live_in_shared_registry(self, sim):
        reg = MetricsRegistry()
        br = CircuitBreaker(sim, failure_threshold=1, name="db",
                            metrics=reg)
        br.record_failure()
        snap = reg.snapshot()
        assert snap["counters"]["resilience.breaker.trips{breaker=db}"] == 1
