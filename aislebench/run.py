"""AISLE end-to-end benchmark: one command, four paper-shaped workloads.

    python3 aislebench/run.py --workload campaign [--seed 11] \
        [--seconds 16] [--trace 0|1]

A run is ``REPEATS`` repeats of the same units, each repeat a fresh
worker process (one thread, no process fan-out) that imports ``repro``,
builds each unit's world from its seed, runs it, checks its outputs and
digests its decisions.  A unit is one world at one seed; a run holds
``units`` of them at consecutive seeds, sized from ``--seconds`` so one
run measures about that long on the reference machine.

``--trace 0`` reports the end-to-end metrics of the untraced repeats:
each metric is the median of its per-repeat figures.
``--trace 1`` runs one untraced repeat, then the same units once more
with every layer's entry points wrapped in span-recording patches, and
reports the per-layer split (see ``tracer.py`` and ``README.md``).

The last line of standard output is one JSON object; every failed check
exits non-zero, names the check on standard error, and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced repeats per run.  Odd, so each reported median is the figure
#: of one repeat: a set-up slowed by a cold page cache or by compiling
#: ``.pyc`` files falls outside it.
REPEATS = 3

#: Reference run-phase seconds of one unit (2-core x86 container), used
#: only to size ``units`` from ``--seconds``; the work is then fixed by
#: ``(seed, seconds)`` whatever the speed of the code under test.
UNIT_SECONDS = {"campaign": 0.35, "service": 0.2, "mesh": 1.9,
                "coordination": 1.2}

#: Default seed per workload.  Seed ``1000 + default`` is held back for
#: confirming a claimed gain on inputs it was not developed on.
DEFAULT_SEEDS = {"campaign": 11, "service": 21, "mesh": 31,
                 "coordination": 41}

#: Layers each workload was chosen to load: they must hold more than half
#: of its traced wall time.
CHOSEN_LAYERS = {"campaign": ("labsci", "methods"),
                 "service": ("sim", "service", "obs"),
                 "mesh": ("net", "data"),
                 "coordination": ("net", "comm", "security", "resilience")}

#: Layers whose entry points must record zero calls on a workload.
NO_CALLS = {"campaign": ("security", "resilience", "service"),
            "service": ("labsci", "methods", "agents", "core",
                        "instruments", "data", "net", "comm", "security",
                        "resilience"),
            "mesh": ("labsci", "methods", "agents", "core", "instruments",
                     "security", "resilience", "service"),
            "coordination": ("labsci", "methods", "agents", "core",
                             "instruments", "data", "service")}

#: Per-layer metrics reported by a traced run, in report order.
LAYER_COUNTS = (
    "labsci.sample_calls", "labsci.points_sampled", "labsci.points_per_call",
    "labsci.evaluate_calls",
    "methods.asks", "methods.ask_ms_p50", "methods.ask_ms_p90",
    "methods.gp_refits",
    "agents.plans", "agents.repairs", "agents.llm_calls",
    "core.verify_calls", "core.verify_accept_share",
    "core.knowledge_absorbed",
    "instruments.operations", "instruments.busy_sim_s",
    "data.ingested", "data.index_queries", "data.index_hit_share",
    "data.fetches", "data.provenance_nodes",
    "net.route_calls", "net.route_self_s", "net.repeat_pair_share",
    "net.transfers", "net.lost", "net.transfer_sim_s",
    "comm.published", "comm.delivered", "comm.rpc_calls", "comm.size_calls",
    "comm.size_repeat_share",
    "security.verified", "security.rejected",
    "resilience.retries", "resilience.timeouts",
    "service.submitted", "service.dispatched",
    "service.queue_wait_p50_sim_s", "service.queue_wait_p99_sim_s",
    "service.peak_in_system",
    "sim.events", "sim.events_per_self_s", "sim.queue_coalesced",
    "sim.queue_far_deferred",
)

#: Units of the per-layer metrics, by name suffix (first match wins).
UNIT_SUFFIXES = (("_per_self_s", "1/s"), ("_sim_s", "sim_s"),
                 ("_self_s", "s"), ("_share", "ratio"),
                 ("_per_call", "ratio"), ("_p50", "ms"), ("_p90", "ms"))

#: Wall-clock budget of the whole command (it must end within 180 s).
BUDGET_S = 170.0


class CheckFailed(Exception):
    """An output check failed; the message names it."""


def units_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / (REPEATS * UNIT_SECONDS[workload])))


def run_worker(workload: str, seed: int, units: int, deadline: float, *,
               spans: str = "") -> dict:
    """One repeat in a fresh single-threaded process; returns its JSON.

    With ``spans`` (the path the spans are written to) the repeat is
    traced.  The process is killed, and waited for, at ``deadline``
    (``time.monotonic()``).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--units", str(units)]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, check=False,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"worker.timeout: {workload} ran past the "
                          f"{BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise CheckFailed(f"worker.exit: {workload} repeat exited "
                          f"{proc.returncode}\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failures"]:
        raise CheckFailed("output check failed: "
                          + ", ".join(result["failures"]))
    return result


def same_digest(results: list[dict], what: str) -> str:
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        raise CheckFailed(f"digest.{what}: decision digests differ "
                          f"({', '.join(sorted(d[:12] for d in digests))})")
    return digests.pop()


def end_to_end(workload: str, repeats: list[dict]) -> tuple[dict, list]:
    """End-to-end metrics of untraced repeats, plus report lines.

    Per repeat, throughput is its operations over its run-phase seconds
    and set-up is ``import repro`` plus every build.  Both are taken in
    wall seconds and, for the metrics, in reference-host seconds: wall
    seconds times the host speed the worker sampled during those phases.
    Each metric is the median over repeats.
    """
    ops = sum(repeats[0]["ops"])
    median = statistics.median
    ops_per_s = median(ops / (r["run_s"] * r["run_speed"]) for r in repeats)
    setup = median(r["setup_s"] * r["setup_speed"] for r in repeats)
    rss = median(r["peak_rss_mb"] for r in repeats)
    metrics = {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
    }
    first = repeats[0]
    units = len(first["ops"])
    attempted, failed = sum(first["attempted"]), sum(first["failed"])
    lat = first["latency"]
    lines = [
        f"{workload}: {len(repeats)} repeats x {units} units "
        f"(seeds {first['seed']}..{first['seed'] + units - 1}); host ran "
        f"at {median(r['run_speed'] for r in repeats):.2f}x reference "
        f"speed (median over repeats; {first['speed_samples']} samples in "
        f"the first)",
        f"  {_OPS_NAMES[workload]:<22} {ops_per_s:12.4f} 1/s"
        f"   ({ops} ops per repeat;"
        f" {median(ops / r['run_s'] for r in repeats):.4f} per wall s)",
        f"  {'setup_s':<22} {setup:12.4f} s"
        f"   ({median(r['setup_s'] for r in repeats):.4f} wall s)",
        f"  {'peak_rss_mb':<22} {rss:12.2f} MiB",
        f"  {'failed_fraction':<22} {failed / attempted:12.6f} ratio"
        f"   ({failed} of {attempted} operations)",
    ]
    if workload in ("service", "coordination"):
        lines += [
            f"  {'p50_sim_latency_s':<22} {lat['p50']:12.6g} sim_s"
            f"   ({_LATENCY_NAMES[workload]}, n={lat['n']})",
            f"  {'p99_sim_latency_s':<22} {lat['p99']:12.6g} sim_s"
            f"   ({lat['beyond_p99']} samples beyond it)",
        ]
    return metrics, lines


_OPS_NAMES = {"campaign": "experiments_per_s", "service": "campaigns_per_s",
              "mesh": "mesh_ops_per_s", "coordination": "messages_per_s"}
_LATENCY_NAMES = {"service": "submit-to-complete", "coordination": "RPC call"}


def per_layer(workload: str, untraced: dict, traced: dict
              ) -> tuple[dict, list]:
    """Per-layer metrics of the traced repeat, checks, and its report."""
    trace = traced["trace"]
    wall_ns = trace["wall_ns"]
    self_ns = trace["layer_self_ns"]
    if trace["misnested"]:
        raise CheckFailed(f"trace.nesting: {trace['misnested']} spans left "
                          f"open or outside their parent span")
    chosen = sum(self_ns[layer] for layer in CHOSEN_LAYERS[workload])
    if chosen * 2 <= wall_ns:
        raise CheckFailed(
            f"trace.chosen_layers: {'+'.join(CHOSEN_LAYERS[workload])} hold "
            f"{chosen / wall_ns:.1%} of the traced wall time, not > 50%")
    stray = {layer: trace["layer_calls"][layer]
             for layer in NO_CALLS[workload] if trace["layer_calls"][layer]}
    if stray:
        raise CheckFailed(f"trace.no_calls: {stray} on {workload}")

    untraced_s = untraced["run_s"]
    overhead = wall_ns / 1e9 / untraced_s
    metrics = {f"{layer}.self_s": {"value": self_ns[layer] / 1e9,
                                   "unit": "s"}
               for layer in self_ns}
    metrics.update({f"{layer}.calls": {"value": n, "unit": "count"}
                    for layer, n in trace["layer_calls"].items()})
    counts = trace["counts"]
    for name in LAYER_COUNTS:
        metrics[name] = {"value": counts.get(name, 0),
                         "unit": _unit(name)}
    metrics["bench.traced_wall_s"] = {"value": wall_ns / 1e9, "unit": "s"}
    metrics["bench.trace_overhead"] = {"value": overhead, "unit": "ratio"}

    ranked = sorted(self_ns, key=lambda layer: -self_ns[layer])
    lines = [f"{workload}: traced {trace['spans']} spans over "
             f"{wall_ns / 1e9:.3f} s (untraced {untraced_s:.3f} s, "
             f"overhead x{overhead:.2f}); the layer self times below sum "
             f"to the traced wall time by construction"]
    for layer in ranked:
        lines.append(f"  {layer:<12} {self_ns[layer] / wall_ns:7.1%}"
                     f"  {self_ns[layer] / 1e9:9.4f} s"
                     f"  {trace['layer_calls'][layer]:>9} calls")
    lines.append("  sim-time split: " + ", ".join(
        f"{k} = {counts.get(k, 0):.6g}" for k in (
            "instruments.busy_sim_s", "service.queue_wait_p50_sim_s",
            "service.queue_wait_p99_sim_s", "net.transfer_sim_s")))
    lines.append("  input properties: " + ", ".join(
        f"{k} = {counts.get(k, 0):.4g}" for k in (
            "net.repeat_pair_share", "comm.size_repeat_share",
            "labsci.points_per_call", "data.index_hit_share")))
    return metrics, lines


def _unit(name: str) -> str:
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="AISLE end-to-end benchmark (see aislebench/README.md)")
    parser.add_argument("--workload", required=True, choices=UNIT_SECONDS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    units = units_for(args.workload, args.seconds)
    try:
        if args.trace:
            untraced = run_worker(args.workload, seed, units, deadline)
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            traced = run_worker(
                args.workload, seed, units, deadline,
                spans=str(out / f"spans-{args.workload}.npz"))
            digest = same_digest([untraced, traced], "traced_vs_untraced")
            metrics, lines = per_layer(args.workload, untraced, traced)
            repeats = [untraced, traced]
        else:
            repeats = [run_worker(args.workload, seed, units, deadline)
                       for _ in range(REPEATS)]
            digest = same_digest(repeats, "repeats")
            metrics, lines = end_to_end(args.workload, repeats)
    except CheckFailed as exc:
        print(f"CHECK FAILED {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(f"  decision digest {digest}")
    print(json.dumps({"correct": True, "attempted": units * len(repeats),
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
