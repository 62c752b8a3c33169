"""Kernel pop order on generated programs, against a ``heapq`` oracle.

Every enqueue goes through ``Simulator._schedule`` or
``Simulator.timeout``, and both call ``schedule_hook``; every pop calls
``step_hook``.  So a hook pair that pushes ``(at, n, event)`` onto a
heap, with ``n`` a running counter, and pops it on every step replays
the retired binary-heap kernel's order on any program.  The generated
programs mix the ways a process enqueues work — timeouts, deferred
callbacks, delayed ``succeed``, ``any_of`` — with interrupts of other
live processes and ``run(until=...)`` windows.
"""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator
from repro.sim.process import Interrupt

_delays = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0, 40.0, 1000.0))
_steps = st.one_of(
    st.tuples(st.just("timeout"), _delays),
    st.tuples(st.just("callback"), _delays),
    st.tuples(st.just("succeed"), _delays),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),  # another process
    st.tuples(st.just("any_of"), _delays, _delays))
_programs = st.lists(st.lists(_steps, max_size=8), min_size=1, max_size=6)
_windows = st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, 3.0, 50.0)),
                    max_size=4)


@given(program=_programs, windows=_windows)
@settings(max_examples=300, deadline=None)
def test_kernel_pops_in_heap_order_on_generated_programs(program, windows):
    sim = Simulator()
    heap: list = []
    counter = itertools.count()

    def on_schedule(at, event):
        heapq.heappush(heap, (at, next(counter), event))

    def on_step(now, event):
        at, _, want = heapq.heappop(heap)
        assert want is event
        assert now == at

    sim.schedule_hook = on_schedule
    sim.step_hook = on_step
    procs: list = []
    started = [False] * len(program)

    def body(k, steps):
        started[k] = True
        for step in steps:
            kind = step[0]
            if kind == "interrupt":
                j = step[1] % len(procs)
                if j != k and started[j] and procs[j].is_alive:
                    procs[j].interrupt(k)
                continue
            if kind == "timeout":
                target = sim.timeout(step[1])
            elif kind == "callback":
                target = sim.schedule_callback(step[1], lambda: None)
            elif kind == "succeed":
                target = sim.event().succeed(k, delay=step[1])
            else:
                target = sim.any_of([sim.timeout(step[1]),
                                     sim.timeout(step[2])])
            try:
                yield target
            except Interrupt:
                pass

    for k, steps in enumerate(program):
        procs.append(sim.process(body(k, steps)))
    for width in windows:
        sim.run(until=sim.now + width)
    sim.run()
    assert not heap
    assert not any(p.is_alive for p in procs)
