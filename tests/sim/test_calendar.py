"""Calendar queue vs binary heap: pop-order and kernel equivalence.

The calendar queue's whole value is being faster while *byte-identical*
in behavior to the binary heap it replaced.  These tests hold that line
from two directions:

- structure-level: generated push/pop schedules through
  :class:`~repro.sim.calendar.CalendarQueue` and ``heapq`` must pop in
  the same global ``(time, seq)`` order, including same-time ties,
  large offsets and mid-stream ``stop_at`` boundaries;
- kernel-level: a fixed mixed program (coalesced pollers, random-delay
  chains, interrupt-cancelled timeouts, ``schedule_callback`` deferred
  resolution) run on the live :class:`~repro.sim.kernel.Simulator` must
  reproduce the step count, end time and decision hash that the retired
  binary-heap kernel produced on it (pinned below), and a 200k-event
  polling fleet must reproduce that kernel's per-tick log digest.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scale.hashing import decision_hash
from repro.sim.calendar import CalendarQueue
from repro.sim.kernel import Simulator
from repro.sim.process import Interrupt

_INF = float("inf")


# -- structure-level property tests ---------------------------------------------

# Offsets are multiples of 1/4, so sums stay exact and pushes from
# different bursts collide on the same time as often as pushes from one
# burst; large offsets park events far beyond the drained prefix, as
# deadlines and watchdogs do.
_near = st.integers(0, 32).map(lambda k: k / 4)
_far = st.integers(200, 2000).map(lambda k: k / 4)
_offsets = st.one_of(_near, _near, _far)
_bursts = st.lists(_offsets, max_size=6)


@pytest.mark.parametrize("start", [0, 1, 7, 42, 1234])  # clock origin
@given(steps=st.lists(st.tuples(_bursts, st.integers(1, 8)), max_size=60))
@settings(max_examples=40, deadline=None)
def test_calendar_matches_heap_pop_order(start, steps):
    """Push bursts at the current clock, drain a few, repeat: the queue
    pops exactly what ``heapq`` pops, tie for tie."""
    queue = CalendarQueue()
    heap: list = []
    seq = 0
    now = float(start)
    for burst, drains in steps + [([], _INF)]:
        for offset in burst:
            queue.push(now + offset, seq)
            heapq.heappush(heap, (now + offset, seq))
            seq += 1
        while drains > 0 and heap:
            drains -= 1
            now, want = heapq.heappop(heap)
            assert queue.pop_due(_INF) == want
            assert queue._active_time == now
    assert queue.pop_due(_INF) is None and len(queue) == 0


@pytest.mark.parametrize("start", [3, 99])  # clock origin
@given(windows=st.lists(st.tuples(_bursts, _near), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_calendar_respects_stop_at_boundaries(start, windows):
    """``run(until=...)`` windows: push a burst at the clock, drain up to
    ``stop_at`` (repeats included), move the clock to ``stop_at``."""
    queue = CalendarQueue()
    heap: list = []
    seq = 0
    clock = float(start)
    for burst, width in windows + [([], _INF)]:
        for offset in burst:
            queue.push(clock + offset, seq)
            heapq.heappush(heap, (clock + offset, seq))
            seq += 1
        stop_at = clock + width
        while (got := queue.pop_due(stop_at)) is not None:
            assert got == heapq.heappop(heap)[1]
        # Nothing at or before stop_at may remain in the heap.
        assert not heap or heap[0][0] > stop_at
        clock = stop_at
    assert not heap and len(queue) == 0


def test_late_earlier_push_not_shadowed_by_pending_bucket():
    # Regression guard: pop_due(stop_at) must not activate a bucket
    # beyond stop_at, or an earlier event scheduled afterwards would be
    # shadowed behind the pending active bucket.
    queue = CalendarQueue()
    queue.push(5.0, "later")
    assert queue.pop_due(2.0) is None
    queue.push(1.0, "earlier")
    assert queue.pop_due(2.0) == "earlier"
    assert queue.pop_due(_INF) == "later"


def test_coalescing_counts_shared_buckets():
    queue = CalendarQueue()
    for s in range(100):
        queue.push(0.25, s)
    stats = queue.stats()
    assert stats["coalesced"] == 99      # one bucket, 99 shared appends
    assert stats["buckets_opened"] == 1
    assert [queue.pop_due(_INF) for _ in range(100)] == list(range(100))


# -- kernel-level equivalence --------------------------------------------------

#: What the retired binary-heap kernel produced on ``_mixed_program``,
#: traced by ``_run_traced``: seed -> (steps, end time,
#: ``decision_hash([trace, log])``).  That kernel can never change, so
#: on these fixed inputs its output is a constant; the live kernel
#: reproduced every value in a separate process.
_FROZEN_TRACED = {
    0: (127, 100.0, "407741c29febef58d325740ec64e6dd7"
                    "1296875f5525b14551ab2db148d76d02"),
    5: (127, 100.0, "9d78a9fcd4f4fef8e8a6fcdd5860e151"
                    "70013905400dc9d5665a9d2660c4059d"),
    2024: (127, 100.0, "ea5a3801fa66f2c913bc28a7bb8fb0e8"
                       "76baaf265b54e6e56ce1383081b20735"),
}
#: The same for seed 7 run in ``_WINDOWS`` (window markers traced too).
_WINDOWS = (0.75, 2.0, 2.0, 6.5)  # repeated + mid-bucket stops
_FROZEN_WINDOWS = (131, 100.0, "7d140e55fd8dfe88dc156442ef487591"
                               "2e7dbc39a8f472a884495acb36d1993b")


def _norm_kind(event) -> str:
    """Event class name without its leading underscore, as the pinned
    traces record it."""
    return type(event).__name__.lstrip("_")


def _mixed_program(sim, seed: int):
    """Build the equivalence workload on ``sim``; returns the log."""
    rng = np.random.default_rng(seed)
    log: list = []

    def poller(name, period, samples):
        for k in range(samples):
            yield sim.timeout(period)
            log.append(("poll", name, k, sim.now))

    for p in range(4):  # identical periods -> same-time ties every tick
        sim.process(poller(p, 0.5, 8))

    delays = np.round(rng.uniform(0.0, 3.0, size=(5, 10)), 3)

    def chain(row):
        total = 0.0
        for d in row:
            yield sim.timeout(float(d))
            total += float(d)
        return total

    chains = [sim.process(chain(delays[i])) for i in range(5)]

    def sleeper(name):
        try:
            yield sim.timeout(100.0)
            log.append(("overslept", name))
        except Interrupt as exc:
            log.append(("interrupted", name, str(exc.cause), sim.now))
            yield sim.timeout(0.5)
            log.append(("recovered", name, sim.now))

    victims = [sim.process(sleeper(i)) for i in range(3)]

    def interrupter():
        yield sim.timeout(2.0)
        for i, victim in enumerate(victims):
            if victim.is_alive:
                victim.interrupt(cause=f"preempt-{i}")
            yield sim.timeout(0.0)  # zero-delay: same-time tie storm

    sim.process(interrupter())

    for d in (0.0, 1.0, 1.0, 2.5):  # duplicate delays share a bucket
        ev = sim.schedule_callback(d, lambda d=d: log.append(("cb", d)))
        assert not ev.triggered  # deferred resolution: pending until fired

    def finisher():
        for proc in chains:
            value = yield proc
            log.append(("chain-done", round(value, 3)))

    sim.process(finisher())
    return log


def _run_traced(seed: int, windows=()):
    """Run ``_mixed_program``, stopping at each ``windows`` time first;
    returns (steps, end time, ``decision_hash([trace, log])``)."""
    sim = Simulator()
    trace: list = []
    sim.step_hook = lambda now, event: trace.append((now, _norm_kind(event)))
    log = _mixed_program(sim, seed)
    for until in windows:
        sim.run(until=until)
        trace.append(("window", sim.now))
    sim.run()
    return len(trace), sim.now, decision_hash([trace, log])


@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_kernel_equivalence_with_frozen_legacy(seed):
    assert _run_traced(seed) == _FROZEN_TRACED[seed]


def test_kernel_equivalence_across_run_until_boundaries():
    assert _run_traced(7, _WINDOWS) == _FROZEN_WINDOWS


# -- poll-fleet digest ----------------------------------------------------------

#: Instrument-polling fleet shape for :func:`_poll_fleet` (the pinned
#: digest below holds for exactly these numbers).
_SIM_POLLERS = 1000       # identical-period instruments per tick
_SIM_TICKS = 200          # polling rounds
_SIM_PERIOD_S = 0.25      # shared polling period (max coalescing)
_SIM_WATCHDOGS = 5000     # far-future deadlines held pending throughout

#: ``decision_hash`` of the poll-fleet log (200 rows of time, tick and
#: pending-event count) as the retired binary-heap kernel wrote it.  That
#: kernel can never change, so this constant is its output; the
#: calendar-queue kernel must reproduce it.
_SIM_POLL_DIGEST = ("7f2290601addb9e615ba1147448835c5"
                    "bd2ac91f1351bea96677ca7f71312d2c")


def _poll_fleet(sim, log: list) -> float:
    """Build the polling-fleet program on ``sim``.

    Models the dominant event pattern of a running facility: every tick,
    each of ``_SIM_POLLERS`` instruments schedules its next sample at
    exactly ``now + _SIM_PERIOD_S`` (all coalescible into one bucket),
    while ``_SIM_WATCHDOGS`` campaign deadlines sit pending far beyond
    the run.  Returns the ``run(until=...)`` deadline.
    """
    for i in range(_SIM_WATCHDOGS):
        sim.timeout(1e6 + i * 1e-3)
    state = [0]

    def drive() -> None:
        tick = state[0]
        if tick >= _SIM_TICKS:
            return
        state[0] = tick + 1
        timeout = sim.timeout
        for _ in range(_SIM_POLLERS):
            timeout(_SIM_PERIOD_S)
        log.append((sim.now, tick, len(sim._queue)))
        sim.schedule_callback(_SIM_PERIOD_S, drive)

    sim.schedule_callback(0.0, drive)
    return _SIM_TICKS * _SIM_PERIOD_S + 1.0


def test_poll_fleet_log_equals_frozen_heap_kernel():
    """200 ticks of 1,000 coalesced polls over 5,000 far-future
    watchdogs: the per-tick log hashes to the heap kernel's digest, the
    watchdogs are all still pending, and the polls shared buckets."""
    sim = Simulator()
    log: list = []
    sim.run(until=_poll_fleet(sim, log))
    assert len(log) == _SIM_TICKS
    assert len(sim._queue) == _SIM_WATCHDOGS
    assert decision_hash(log) == _SIM_POLL_DIGEST
    assert sim.queue_stats()["coalesced"] > 0
