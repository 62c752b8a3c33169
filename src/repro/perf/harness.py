"""The perf harness: timed runs, versioned reports, baseline gating.

Wall-clock access is concentrated in :func:`_wall_clock` — the one
sanctioned exception to detlint's D002 rule in this repository.  Every
workload receives that clock as an argument, so the rest of the perf
stack (and everything it imports) stays statically clean.

Report schema (``SCHEMA_VERSION``)::

    {
      "schema_version": 2,
      "quick": bool, "seed": int, "repeats": int,
      "workloads": {name: {"metrics": {...}, "gates": {...}}},
      "gates": {"<workload>.<gate>": ratio, ...},
      "skipped_gates": {"<workload>.<gate>": "why", ...},
      "obs": {"counters": {"perf.workloads_run": n},
              "gauges": {"perf.<workload>.<metric>": value, ...}}
    }

``gates`` do not depend on the machine's speed (sim-time figures, capped
headroom and same-run ratios, see :mod:`repro.perf.workloads`): comparing
them against a committed baseline is what lets CI fail on a >20%
regression without pinning hardware.

``skipped_gates`` records gates a workload *declined to evaluate* on this
machine (e.g. ``parallel_worlds.parallel_speedup`` on a single-core box,
where no parallel win is physically available).  A skip is an honest
"not measurable here", never a pass: :func:`compare_reports` exempts a
gate only when the side missing it explicitly declared the skip, so a
gate that silently vanishes still fails the comparison.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.perf.workloads import WORKLOADS

SCHEMA_VERSION = 2


def _wall_clock() -> float:
    """Monotonic wall-time read for perf measurement only.

    Simulation code must read ``sim.now``; measuring how long real code
    takes is the single legitimate use of the host clock here.
    """
    return time.perf_counter()  # detlint: ignore[D002] — perf harness measures real elapsed time


class PerfHarness:
    """Runs the registered workloads and assembles a report.

    Parameters
    ----------
    quick:
        Shrink every workload for CI smoke runs (seconds, not minutes).
    seed:
        Seed for workload input generation (the work is identical across
        runs with the same seed; only the clock varies).
    repeats:
        Runs per workload; per-metric medians go into the report.
        Defaults to 1 in quick mode, 3 otherwise.
    workloads:
        Subset of workload names to run (default: all registered).
    metrics:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry`; the
        harness reports ``perf.*`` gauges/counters into it either way and
        embeds the snapshot in the report.
    """

    def __init__(self, *, quick: bool = False, seed: int = 0,
                 repeats: Optional[int] = None,
                 workloads: Optional[list[str]] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.quick = quick
        self.seed = seed
        self.repeats = repeats if repeats is not None else (1 if quick else 3)
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        names = workloads if workloads is not None else list(WORKLOADS)
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            raise ValueError(
                f"unknown workloads {unknown}; known: {sorted(WORKLOADS)}")
        self.workload_names = names
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def run(self) -> dict:
        """Run every selected workload and return the report dict."""
        report: dict = {
            "schema_version": SCHEMA_VERSION,
            "quick": self.quick,
            "seed": self.seed,
            "repeats": self.repeats,
            "workloads": {},
            "gates": {},
            "skipped_gates": {},
        }
        for name in self.workload_names:
            fn = WORKLOADS[name]
            runs = [fn(_wall_clock, quick=self.quick, seed=self.seed)
                    for _ in range(self.repeats)]
            merged = {
                "metrics": _median_of(r["metrics"] for r in runs),
                "gates": _median_of(r["gates"] for r in runs),
            }
            report["workloads"][name] = merged
            for gate, value in merged["gates"].items():
                report["gates"][f"{name}.{gate}"] = value
            for run in runs:
                for gate, reason in run.get("skipped", {}).items():
                    report["skipped_gates"][f"{name}.{gate}"] = reason
            for metric, value in merged["metrics"].items():
                self.metrics.gauge(f"perf.{name}.{metric}").set(value)
            self.metrics.counter("perf.workloads_run").inc()
        snap = self.metrics.snapshot()
        report["obs"] = {
            kind: {k: v for k, v in snap[kind].items()
                   if k.startswith("perf.")}
            for kind in ("counters", "gauges")
        }
        return report


def _median_of(dicts) -> dict[str, float]:
    """Key-wise median across same-keyed dicts, rounded for stable JSON."""
    dicts = list(dicts)
    return {k: _round(statistics.median(d[k] for d in dicts))
            for k in dicts[0]}


def _round(x: float) -> float:
    return float(f"{float(x):.6g}")


# -- baseline comparison -------------------------------------------------------


def compare_reports(current: dict, baseline: dict,
                    threshold: float = 0.20) -> list[str]:
    """Regression messages (empty = pass) for current vs baseline gates.

    A gate regresses when its value drops more than ``threshold``
    (fractional) below the committed baseline.  Gates present in only one
    report are reported as structural drift rather than silently skipped
    — *unless* the side missing the gate explicitly declared it under
    ``skipped_gates`` (machine-dependent gates like
    ``parallel_worlds.parallel_speedup`` are skipped, not faked, on
    boxes that cannot evaluate them; the baseline and CI may legally
    run on different core counts).
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must be in [0, 1)")
    problems = []
    cur, base = current.get("gates", {}), baseline.get("gates", {})
    cur_skipped = current.get("skipped_gates", {})
    base_skipped = baseline.get("skipped_gates", {})
    for key in sorted(base):
        if key not in cur:
            if key in cur_skipped:
                continue  # declared unmeasurable on this machine
            problems.append(f"gate {key!r} missing from current report")
            continue
        floor = base[key] * (1.0 - threshold)
        if cur[key] < floor:
            problems.append(
                f"gate {key!r} regressed: {cur[key]:.3g}x vs baseline "
                f"{base[key]:.3g}x (floor {floor:.3g}x at "
                f"{threshold:.0%} tolerance)")
    for key in sorted(set(cur) - set(base)):
        if key in base_skipped:
            continue  # baseline machine declared it unmeasurable
        problems.append(f"gate {key!r} has no baseline entry "
                        f"(re-generate BENCH_PERF.json)")
    return problems


def write_report(report: dict, path: str) -> None:
    """Write a report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != {SCHEMA_VERSION} "
            f"(re-generate with `python -m repro.perf`)")
    return report
