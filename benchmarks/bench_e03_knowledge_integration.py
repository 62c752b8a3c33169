"""E3 (milestone M9): cross-facility knowledge integration.

Paper target: "Deploy a knowledge integration system with 3+ facilities,
propagating insights across sites in real-time to reduce required
experiments by >30% while achieving >90% scientist approval of reasoning
traces."

Design: two established facilities run perovskite campaigns and publish
their observations into the knowledge base.  A third facility then
pursues the same brightness target, either **cold** (isolated — the
pre-AISLE world) or **integrated** (syncing the federation's knowledge,
raw or bias-corrected).  Metric: experiments the joining facility needs
to reach the target.  All instruments carry site-specific calibration
offsets, which is what the corrected policy must overcome.
"""

import numpy as np

from benchmarks.conftest import fmt, report, run_seeded
from repro.core import CampaignSpec, FederationManager
from repro.core.metrics import reduction_fraction
from repro.labsci import PerovskiteLandscape

TARGET = 0.35
DONOR_BUDGET = 50
JOINER_BUDGET = 80
SEEDS = (11, 23)


def _landscape(site: str) -> PerovskiteLandscape:
    return PerovskiteLandscape(seed=5, site=site, calibration_scale=1.0)


def _run(seed: int, config: dict):
    """World entrypoint: one knowledge policy on one seed (picklable)."""
    policy = config["policy"]
    fed = FederationManager(seed=seed, n_sites=4, objective_key="plqy")
    donors = [fed.add_lab(f"site-{i}", _landscape) for i in (0, 1)]
    joiner = fed.add_lab("site-2", _landscape)
    kb = fed.make_knowledge_base(policy=policy)

    # Phase 1: the established facilities accumulate and publish knowledge.
    donor_procs = []
    for lab in donors:
        orch = fed.make_orchestrator(lab, verified=True, knowledge=kb)
        spec = CampaignSpec(name=f"donor-{lab.name}", objective_key="plqy",
                            max_experiments=DONOR_BUDGET)
        donor_procs.append(fed.sim.process(orch.run_campaign(spec)))
    for proc in donor_procs:
        fed.sim.run(until=proc)

    # Phase 2: the joining facility chases the target.
    joiner.evaluator.target = TARGET
    orch = fed.make_orchestrator(joiner, verified=True, knowledge=kb)
    spec = CampaignSpec(name="joiner", objective_key="plqy", target=TARGET,
                        max_experiments=JOINER_BUDGET)
    proc = fed.sim.process(orch.run_campaign(spec))
    result = fed.sim.run(until=proc)
    needed = result.report(target=TARGET).experiments_to_target \
        or JOINER_BUDGET
    return {"needed": needed, "traces": list(kb.reasoning_traces())}


def _trace_approval(traces: list, rng) -> float:
    """Panel approval of reasoning traces (M9's >90% criterion).

    A simulated reviewer approves a trace when it names its plan and
    carries a substantive rationale; 5% of reviews are harsh regardless.
    """
    if not traces:
        return 0.0
    approvals = sum(
        1 for t in traces
        if ":" in t and len(t.split(":", 1)[1].strip()) > 5
        and rng.random() > 0.05)
    return approvals / len(traces)


def test_e03_knowledge_integration(bench_once):
    policies = ("none", "raw", "corrected")

    def scenario():
        return {p: run_seeded(_run, SEEDS, {"policy": p}) for p in policies}

    results = bench_once(scenario)
    rng = np.random.default_rng(0)
    means, rows, approval = {}, [], None
    for policy in policies:
        runs = results[policy]
        needed = [r["needed"] for r in runs]
        means[policy] = float(np.mean(needed))
        if policy == "corrected":
            approval = float(np.mean(
                [_trace_approval(r["traces"], rng) for r in runs]))
        rows.append([policy, " / ".join(map(str, needed)),
                     fmt(means[policy], 1),
                     fmt(reduction_fraction(means["none"], means[policy]), 2)])
    report(
        f"E3: experiments for a joining facility to reach PLQY {TARGET} "
        f"(M9 target: >30% reduction)",
        ["knowledge policy", "per-seed", "mean", "reduction vs isolated"],
        rows)
    print(f"reasoning-trace approval (corrected): {approval:.2%} "
          f"(M9 target: >90%)")

    reduction = reduction_fraction(means["none"], means["corrected"])
    assert reduction is not None and reduction > 0.30, \
        f"M9 wants >30% reduction, got {reduction:.0%}"
    # Raw sharing also helps at these (small) calibration offsets; both
    # integrated policies must decisively beat isolation.
    raw_reduction = reduction_fraction(means["none"], means["raw"])
    assert raw_reduction is not None and raw_reduction > 0.30
    assert approval is not None and approval > 0.90
