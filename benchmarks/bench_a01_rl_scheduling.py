"""A1 (ablation, §3.3): RL for dynamic experimental scheduling.

The paper lists "reinforcement learning for dynamic experimental
scheduling" among the specialized techniques agents orchestrate.  This
ablation shows where it earns its keep: routing experiments between a
fast-but-contended reactor (shared with another campaign that grabs it in
bursts) and a slower dedicated one.  Static policies either queue behind
the bursts (always-fast) or waste the fast machine (always-slow); the
tabular Q-learner observes queue pressure and learns burst-aware routing
online.
"""

from benchmarks.conftest import fmt, report
from repro.instruments import FluidicReactor
from repro.labsci import QuantumDotLandscape
from repro.methods import QLearningScheduler
from repro.sim import RngRegistry, Simulator

WINDOW_S = 6 * 3600.0
BURST_PERIOD_S = 1200.0
BURST_LEN_S = 600.0


def _world():
    sim = Simulator()
    rngs = RngRegistry(33)
    landscape = QuantumDotLandscape(seed=7)
    fast = FluidicReactor(sim, "fast", "s", rngs, landscape,
                          sample_time_s=12.0, prime_time_s=0.0)
    slow = FluidicReactor(sim, "slow", "s", rngs, landscape,
                          sample_time_s=60.0, prime_time_s=0.0)

    def rival_campaign():
        # Another group's standing reservation: bursts on the fast rig.
        while True:
            yield sim.timeout(BURST_PERIOD_S - BURST_LEN_S)
            req = fast.duty.request()
            yield req
            yield sim.timeout(BURST_LEN_S)
            req.release()

    sim.process(rival_campaign())
    return sim, rngs, landscape, fast, slow


def _run_policy(policy: str):
    """One training window (RL learns online) + one greedy eval window.

    Static policies have nothing to learn, so only their eval window
    counts; the RL arm carries its Q-table (epsilon frozen at the floor)
    into evaluation — the standard train/deploy split.
    """
    sim, rngs, landscape, fast, slow = _world()
    rng = rngs.stream(f"router/{policy}")
    scheduler = QLearningScheduler(("fast", "slow"), rng, epsilon=0.3,
                                   alpha=0.3)
    completed = [0]
    learning = [policy == "rl"]

    def state():
        # At decision time the campaign itself holds nothing, so any
        # occupancy of the fast rig is the rival's burst.
        return min(fast.duty.queue_length + fast.duty.count, 2)

    def campaign():
        while True:
            params = landscape.space.sample(rng)
            if policy == "rl":
                s = state()
                action = (scheduler.choose(s) if learning[0]
                          else scheduler.policy(s))
            elif policy == "random":
                action = str(rng.choice(["fast", "slow"]))
            else:
                action = policy  # "fast" or "slow"
            rig = fast if action == "fast" else slow
            t0 = sim.now
            yield from rig.synthesize(params)
            completed[0] += 1
            if policy == "rl" and learning[0]:
                elapsed = sim.now - t0
                scheduler.update(s, action, reward=-elapsed / 60.0,
                                 next_state=state())

    sim.process(campaign())
    if policy == "rl":
        sim.run(until=WINDOW_S)       # training window
        learning[0] = False
    eval_start = sim.now
    completed[0] = 0
    sim.run(until=eval_start + WINDOW_S)  # evaluation window
    return completed[0], scheduler


def test_a01_rl_scheduling(bench_once):
    policies = ("fast", "slow", "random", "rl")

    def scenario():
        return {p: _run_policy(p) for p in policies}

    results = bench_once(scenario)
    rows = []
    counts = {}
    for policy in policies:
        n, scheduler = results[policy]
        counts[policy] = n
        rows.append([policy, n, fmt(n / (WINDOW_S / 3600.0), 1)])
    report(
        "A1 (ablation): dynamic scheduling under resource contention",
        ["routing policy", "experiments completed", "per hour"],
        rows)
    _, rl_sched = results["rl"]
    idle = rl_sched.policy(0)   # fast rig free
    busy = rl_sched.policy(1)   # rival burst holds the fast rig
    print(f"learned policy: fast-rig-free -> {idle}, "
          f"rival-burst -> {busy} "
          f"(epsilon decayed to {rl_sched.epsilon:.3f})")

    # The deployed RL router must beat both static policies and random.
    assert counts["rl"] > max(counts["fast"], counts["slow"])
    assert counts["rl"] > counts["random"]
    # And the learned policy is the burst-aware one.
    assert idle == "fast"
    assert busy == "slow"
