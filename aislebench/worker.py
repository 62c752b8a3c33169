"""One repeat of one workload, in a fresh process.

Run by ``run.py``, never by hand::

    python3 aislebench/worker.py --workload campaign --seed 11 --units 8 \
        [--spans PATH]

It times ``import repro`` plus each unit's world construction (the set-up)
and each unit's run phase, sampling the host's speed while they run (see
:class:`PhaseClock`).  It runs the output checks and digests every unit's
decisions (both untimed), and prints one JSON object.  With ``--spans``
the entry points are patched before the first world is built, every run
phase is recorded as a span tree (see ``tracer.py``) and the spans are
written to ``PATH`` when the run ends; the speed is not sampled then, as
a sample would land in whichever span is open.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _percentiles(samples: list[float]) -> dict:
    import numpy as np
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        return {"n": 0, "p50": 0.0, "p99": 0.0, "beyond_p99": 0}
    p50, p99 = np.quantile(arr, [0.5, 0.99])
    return {"n": int(arr.size), "p50": float(p50), "p99": float(p99),
            "beyond_p99": int((arr > p99).sum())}


#: Wall seconds between two speed samples while a measured phase runs.
SAMPLE_INTERVAL_S = 0.05

#: Rounds of the sampling loop: about 2 ms on the reference host.
SAMPLE_ROUNDS = 2_500

#: Seconds the sampling loop takes on the reference host when it is quiet
#: (a 2-core x86 container; 34 ms per 40 000 rounds, the 10th percentile
#: of 300 loops).  A sample's speed is this over the sample's seconds.
SAMPLE_REF_S = 0.034 * SAMPLE_ROUNDS / 40_000


def loop_seconds() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed.

    Pure Python (no numpy), so it imports nothing the set-up would
    otherwise pay for.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for i in range(SAMPLE_ROUNDS):
        key = i % 251
        table[key] = table.get(key, 0) + (i * 7) % 13
        heapq.heappush(heap, ((i * 31) % 97, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        [key, i].sort()
    return time.perf_counter() - t0


class PhaseClock:
    """Seconds of the measured phases, and how fast the host ran in them.

    On a shared host the same code runs up to twice as slow from one
    second to the next, in spells shorter than one unit.  While a phase
    runs, a ``SIGALRM`` handler times :func:`loop_seconds` every
    ``SAMPLE_INTERVAL_S`` of wall time.  The samples' own time is taken
    out of the phase, and their mean speed lets ``run.py`` express the
    phase in seconds of a reference-speed host; samples spaced evenly in
    wall time weigh each part of the phase by its length.  (Samples taken
    only between phases miss those spells: see ``README.md``.)
    """

    def __init__(self, sample: bool) -> None:
        self.seconds = {"setup": 0.0, "run": 0.0}
        self.samples: dict[str, list[float]] = {"setup": [], "run": []}
        self._sample = sample
        self._into: list[float] = []
        if sample:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        self._into.append(loop_seconds())

    @contextlib.contextmanager
    def phase(self, kind: str):
        """Time the ``with`` body as a phase of ``kind``."""
        self._into = samples = self.samples[kind]
        before = len(samples)
        if self._sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if self._sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            self.seconds[kind] += wall - sum(samples[before:])

    def speed(self, kind: str) -> float:
        """The host's mean speed over a kind's phases, relative to the
        reference host (1.0 when the speed was not sampled)."""
        samples = self.samples[kind]
        if not samples:
            return 1.0
        return statistics.fmean(SAMPLE_REF_S / s for s in samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    clock = PhaseClock(sample=not args.spans)
    with clock.phase("setup"):
        sys.path.insert(0, str(ROOT / "src"))
        import repro  # noqa: F401  (the set-up users pay)
        import workloads
    from repro.scale.hashing import decision_hash  # digests only, untimed

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.spans:
        import tracer as tracing
        tracer = tracing.SpanTracer().install(
            tracing.entry_points(workloads.BENCH_ENTRY_POINTS))

    outcomes, counts, failures, unit_digests = [], [], [], []
    events = [0]

    def count_event(now, event, _events=events):
        _events[0] += 1

    queue_stats = {"coalesced": 0, "far_deferred": 0}
    for k in range(args.units):
        seed = args.seed + k
        with clock.phase("setup"):
            world = workload.build(seed)
        if tracer is not None:
            world.sim.step_hook = count_event
            tracer.begin_unit()
        with clock.phase("run"):
            outcome = workload.run(world)
        if tracer is not None:
            tracer.end_unit()
            world.sim.step_hook = None
            counts.append(workload.layer_counts(world, outcome))
            for key in queue_stats:
                queue_stats[key] += world.sim.queue_stats()[key]
        failures += [f"{name} (seed {seed})"
                     for name in workload.check(world, outcome)]
        unit_digests.append(decision_hash(outcome.decisions))
        outcome.decisions = None  # digested; keep only the counts
        outcomes.append(outcome)
        del world
        gc.collect()  # the next unit starts without this one's garbage

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "units": args.units,
        # Wall seconds without the speed samples' own time.
        "setup_s": clock.seconds["setup"],
        "run_s": clock.seconds["run"],
        "setup_speed": clock.speed("setup"),
        "run_speed": clock.speed("run"),
        "speed_samples": len(clock.samples["setup"])
        + len(clock.samples["run"]),
        "ops": [o.ops for o in outcomes],
        "attempted": [o.attempted for o in outcomes],
        "failed": [o.failed for o in outcomes],
        "latency": _percentiles([x for o in outcomes for x in o.latencies]),
        "digest": decision_hash(unit_digests),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "trace": None,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = _trace_report(tracer, counts, events[0],
                                        queue_stats)
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


def _trace_report(tracer, counts: list[dict], events: int,
                  queue_stats: dict) -> dict:
    """Per-layer metrics of the traced run (plain data)."""
    import numpy as np
    summary = tracer.summary()
    totals: dict[str, float] = {}
    samples: dict[str, list] = {}
    for unit_counts in counts:
        for key, value in unit_counts.items():
            if isinstance(value, list):
                samples.setdefault(key, []).extend(value)
            else:
                totals[key] = totals.get(key, 0) + value
    # Shares read from the public stats are averaged over units, not summed.
    for key in totals:
        if key.endswith("_share"):
            totals[key] /= len(counts)
    # Sample lists ``<name>_sim_s`` become ``<name>_p50_sim_s``/``_p99``.
    for key, values in samples.items():
        stem = key[:-len("_sim_s")]
        p50, p99 = np.quantile(values, [0.5, 0.99]) if values else (0, 0)
        totals[f"{stem}_p50_sim_s"] = float(p50)
        totals[f"{stem}_p99_sim_s"] = float(p99)
    calls = tracer.group_calls
    sample_calls = calls("labsci.sample") + calls("labsci.sample_batch")
    route_calls = calls("net.route")
    size_calls = calls("comm.estimate_size")
    asks_ms = tracer.group_durations_ns("methods.ask") / 1e6
    sim_self_s = summary["layer_self_ns"]["sim"] / 1e9
    totals.update({
        "labsci.sample_calls": sample_calls,
        "labsci.points_sampled": tracer.points,
        "labsci.points_per_call": (tracer.points / sample_calls
                                   if sample_calls else 0.0),
        "labsci.evaluate_calls": (calls("labsci.evaluate")
                                  + calls("labsci.evaluate_batch")),
        "methods.asks": calls("methods.ask"),
        "methods.ask_ms_p50": (float(np.quantile(asks_ms, 0.5))
                               if asks_ms.size else 0.0),
        "methods.ask_ms_p90": (float(np.quantile(asks_ms, 0.9))
                               if asks_ms.size else 0.0),
        "methods.gp_refits": (calls("methods.fit")
                              + calls("methods.fit_hyperparameters")),
        "net.route_calls": route_calls,
        "net.route_self_s": tracer.group_self_ns("net.route") / 1e9,
        "net.repeat_pair_share": (1.0 - tracer.route_pairs_distinct
                                  / route_calls if route_calls else 0.0),
        "comm.size_calls": size_calls,
        "comm.size_repeat_share": (tracer.sizes_repeated / size_calls
                                   if size_calls else 0.0),
        "sim.events": events,
        "sim.events_per_self_s": events / sim_self_s if sim_self_s else 0.0,
        "sim.queue_coalesced": queue_stats["coalesced"],
        "sim.queue_far_deferred": queue_stats["far_deferred"],
    })
    return {**summary, "counts": totals}


if __name__ == "__main__":
    sys.exit(main())
