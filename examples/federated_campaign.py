#!/usr/bin/env python
"""Federated discovery: joining the AISLE network vs going it alone.

Reproduces the paper's central promise (M9): knowledge propagating across
interconnected laboratories reduces the experiments each lab needs.  Two
established facilities run perovskite-nanocrystal campaigns and publish
observations into the federation's knowledge base; a third lab then
pursues the same brightness target either **isolated** (policy "none") or
**integrated** (bias-corrected sharing).  Every site's instruments carry
site-specific calibration offsets, which the transfer adapter corrects.

Run:  python examples/federated_campaign.py
"""

from repro.core import CampaignSpec, FederationManager
from repro.labsci import PerovskiteLandscape

TARGET = 0.35
DONOR_BUDGET = 50
JOINER_BUDGET = 80


def landscape(site: str) -> PerovskiteLandscape:
    return PerovskiteLandscape(seed=5, site=site, calibration_scale=1.0)


def run_joiner(policy: str) -> int:
    fed = FederationManager(seed=11, n_sites=4, objective_key="plqy")
    donors = [fed.add_lab(f"site-{i}", landscape) for i in (0, 1)]
    joiner = fed.add_lab("site-2", landscape)
    kb = fed.make_knowledge_base(policy=policy)

    # Established facilities work first, publishing as they go.
    for lab in donors:
        orch = fed.make_orchestrator(lab, verified=True, knowledge=kb)
        spec = CampaignSpec(name=f"donor-{lab.name}", objective_key="plqy",
                            max_experiments=DONOR_BUDGET)
        proc = fed.sim.process(orch.run_campaign(spec))
        fed.sim.run(until=proc)

    # The new lab joins and chases the target.
    joiner.evaluator.target = TARGET
    orch = fed.make_orchestrator(joiner, verified=True, knowledge=kb)
    spec = CampaignSpec(name="joiner", objective_key="plqy", target=TARGET,
                        max_experiments=JOINER_BUDGET)
    proc = fed.sim.process(orch.run_campaign(spec))
    result = fed.sim.run(until=proc)
    return result.report(target=TARGET).experiments_to_target \
        or JOINER_BUDGET


def main() -> None:
    print(f"target PLQY: {TARGET}  |  joiner budget: {JOINER_BUDGET}\n")
    needed = {}
    for policy in ("none", "corrected"):
        needed[policy] = run_joiner(policy)
        label = ("isolated lab (pre-AISLE)" if policy == "none"
                 else "integrated lab (AISLE)")
        print(f"{label:>26}: {needed[policy]} experiments to target")
    reduction = 100.0 * (1.0 - needed["corrected"] / needed["none"])
    print(f"\nknowledge integration reduced required experiments by "
          f"{reduction:.0f}% (M9 target: >30%)")


if __name__ == "__main__":
    main()
