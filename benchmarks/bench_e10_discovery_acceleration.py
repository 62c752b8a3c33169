"""E10 (§1/§4 claim): "shorten the path from ideation to innovation...
accelerates discovery from decades to months".

The quantitative shape behind the rhetoric: the same materials-discovery
goal (reach a target PLQY) pursued three ways —

1. **traditional**: human-orchestrated batch synthesis (slow decisions
   during working hours, slow instrument, no verification);
2. **autonomous lab**: one AISLE site (fluidic SDL, agent orchestration);
3. **AISLE federation**: a lab joining a network whose knowledge base
   already carries two sister labs' campaigns (E3's mechanism).

We report time-to-target on the simulated clock and the acceleration
factors.  Absolute numbers are simulator-scale; the *ordering and rough
magnitude* (multiple orders of magnitude between traditional and
federated) is the claim under test.
"""

from benchmarks.conftest import fmt, report
from repro.core import CampaignSpec, FederationManager, speedup
from repro.labsci import QuantumDotLandscape

TARGET = 0.40
BUDGET = 150
#: The human-paced arm gets a bigger experiment budget — time, not
#: experiment count, is what it runs out of.
TRADITIONAL_BUDGET = 400
DAY = 86_400.0


def _landscape(site: str) -> QuantumDotLandscape:
    return QuantumDotLandscape(seed=7)


def _traditional():
    fed = FederationManager(seed=23, n_sites=2, objective_key="plqy")
    lab = fed.add_lab("site-0", _landscape, synthesis_kind="batch")
    lab.evaluator.target = TARGET
    manual = fed.make_manual(lab, batch_size=6,
                             decision_delay_s=8 * 3600.0)
    spec = CampaignSpec(name="traditional", objective_key="plqy",
                        target=TARGET, max_experiments=TRADITIONAL_BUDGET)
    proc = fed.sim.process(manual.run_campaign(spec))
    return fed.sim.run(until=proc)


def _autonomous():
    fed = FederationManager(seed=23, n_sites=2, objective_key="plqy")
    lab = fed.add_lab("site-0", _landscape, synthesis_kind="flow")
    lab.evaluator.target = TARGET
    orch = fed.make_orchestrator(lab, verified=True)
    spec = CampaignSpec(name="autonomous", objective_key="plqy",
                        target=TARGET, max_experiments=BUDGET)
    proc = fed.sim.process(orch.run_campaign(spec))
    return fed.sim.run(until=proc)


def _federated():
    fed = FederationManager(seed=23, n_sites=3, objective_key="plqy")
    donors = [fed.add_lab(f"site-{i}", _landscape) for i in (0, 1)]
    joiner = fed.add_lab("site-2", _landscape)
    kb = fed.make_knowledge_base(policy="corrected")
    for lab in donors:
        orch = fed.make_orchestrator(lab, verified=True, knowledge=kb)
        spec = CampaignSpec(name=f"donor-{lab.name}", objective_key="plqy",
                            max_experiments=60)
        proc = fed.sim.process(orch.run_campaign(spec))
        fed.sim.run(until=proc)
    joiner.evaluator.target = TARGET
    orch = fed.make_orchestrator(joiner, verified=True, knowledge=kb)
    spec = CampaignSpec(name="federated", objective_key="plqy",
                        target=TARGET, max_experiments=BUDGET)
    t0 = fed.sim.now
    proc = fed.sim.process(orch.run_campaign(spec))
    result = fed.sim.run(until=proc)
    # The joiner's clock starts when it starts (donor history is sunk
    # cost of the *network*, not of this discovery).
    result.started = t0
    return result


def test_e10_discovery_acceleration(bench_once):
    def scenario():
        return {"traditional": _traditional(),
                "autonomous-lab": _autonomous(),
                "aisle-federation": _federated()}

    results = bench_once(scenario)
    times = {}
    rows = []
    for arm, result in results.items():
        t = result.report(target=TARGET).time_to_target
        times[arm] = t
        rows.append([arm,
                     fmt((t or result.duration) / DAY, 2),
                     result.n_experiments
                     if t is not None else f">{result.n_experiments}",
                     fmt(result.best_value)])
    base = times["traditional"]
    for row, arm in zip(rows, results):
        row.append(f"{speedup(base, times[arm]):.0f}x"
                   if times[arm] and base else "-")
    report(
        f"E10: time to discover a PLQY>={TARGET} recipe "
        f"(paper: 'decades to months')",
        ["approach", "days to target", "experiments", "best found",
         "acceleration"],
        rows)

    t_trad, t_auto, t_fed = (times["traditional"],
                             times["autonomous-lab"],
                             times["aisle-federation"])
    assert t_trad is not None and t_auto is not None and t_fed is not None
    # The ordering the paper promises, with real factors between tiers.
    assert t_auto < t_trad / 10.0, "autonomy should win by >10x"
    assert t_fed < t_auto, "the federation should beat the lone lab"
    assert t_fed < t_trad / 20.0
