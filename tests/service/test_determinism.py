"""Service determinism: same seed, same decision hash; world replay."""

from repro.core.campaign import CampaignSpec
from repro.scale.hashing import decision_hash
from repro.scale.runner import WorldRunner, WorldSpec
from repro.scale.worlds import WORLD_KINDS, service_world
from repro.service import (CampaignService, FacilitySlot, TenantQuota,
                           synthetic_runner)
from repro.sim.kernel import Simulator


def _run_mixed(seed):
    sim = Simulator()
    runner = synthetic_runner(sim, seed=seed, mean_experiment_s=150.0)
    svc = CampaignService(
        sim, [FacilitySlot(f"s{i}", runner) for i in range(3)])
    svc.register_tenant("a", TenantQuota(share=1.0))
    svc.register_tenant("b", TenantQuota(share=2.0))
    handles = []
    for i in range(12):
        handles.append(svc.submit(
            "a" if i % 2 else "b",
            CampaignSpec(name=f"c{i}", objective_key="objective",
                         max_experiments=2 + i % 3),
            priority=i % 2, deadline=20_000.0 + 500.0 * i))
    # Cancel a queued campaign mid-run so the log covers that path too.
    def chaos():
        yield sim.timeout(200.0)
        for h in handles:
            if not h.done and h.started_at is None:
                h.cancel()
                break
    sim.process(chaos())
    sim.run()
    return decision_hash(svc.decision_log())


def test_same_seed_same_decision_hash():
    assert _run_mixed(5) == _run_mixed(5)


def test_different_seed_different_hash():
    assert _run_mixed(5) != _run_mixed(6)


def test_service_world_registered():
    assert "service" in WORLD_KINDS
    assert WORLD_KINDS["service"] is service_world


def test_service_world_parallel_matches_serial_replay():
    config = {"n_tenants": 3, "n_slots": 2, "campaigns": 3,
              "experiments": 2}
    specs = [WorldSpec(seed=s, entrypoint=service_world, config=config)
             for s in (0, 1)]
    serial = WorldRunner(1).run(specs)
    parallel = WorldRunner(2).run(specs)
    assert serial.hashes == parallel.hashes


def test_service_world_output_is_hashable_plain_data():
    out = service_world(3, {"n_tenants": 2, "n_slots": 2, "campaigns": 2,
                            "experiments": 2})
    digest = decision_hash(out)
    assert isinstance(digest, str) and len(digest) == 64
    assert out["campaigns_completed"] > 0
    assert out["decisions"]
