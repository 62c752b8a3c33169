"""Canonical, picklable world entrypoints for the scale-out runner.

A world entrypoint is a module-level callable ``fn(seed, config) ->
plain data`` — importable by reference in a worker process, returning
only data :func:`~repro.scale.hashing.decision_hash` can canonically
encode.  These four cover the repo's staple multi-seed shapes:

- :func:`bo_world` — the E12-shaped flat-BO campaign on the quantum-dot
  landscape (optimizer decisions only, no federation);
- :func:`testbed_world` — a full :class:`~repro.testbed.Testbed`
  federation running one campaign, reported picklably;
- :func:`service_world` — a multi-tenant
  :class:`~repro.service.CampaignService` under mixed load, whose
  decision log pins every admission/dispatch/terminal transition;
- :func:`mesh_world` — a facility-sharded data mesh under a governance
  workload, whose decision rows pin every discovery query's result.

All four are used by the ``python -m repro.scale`` CLI and the CI
``parallel-equivalence`` and ``hash-guard`` jobs; ``bo_world`` also
drives the ``wall-clock-gates`` parallel-speedup step.
"""

from __future__ import annotations

import numpy as np

from repro.core.campaign import CampaignSpec
from repro.labsci.quantum_dots import QuantumDotLandscape
from repro.testbed import Testbed

__all__ = ["bo_world", "mesh_world", "testbed_world", "service_world",
           "BUDGET_WORLDS", "WORLD_KINDS"]


def bo_world(seed: int, config: dict) -> dict:
    """Flat-BO campaign over the quantum-dot landscape (E12-shaped).

    The decision sequence is the full encoded (params, value) trajectory,
    so the hash is sensitive to *every* ask/tell — not just the winner.
    """
    # Imported here, so the other worlds never load repro.methods.
    from repro.methods.bayesopt import BayesianOptimizer
    budget = int(config.get("budget", 40))
    n_init = int(config.get("n_init", 8))
    n_candidates = int(config.get("n_candidates", 128))
    landscape = QuantumDotLandscape(seed=int(config.get("landscape_seed", 2)))
    space = landscape.space
    opt = BayesianOptimizer(space, np.random.default_rng(seed),
                            n_init=n_init, n_candidates=n_candidates)
    chosen: list[dict] = []
    values = np.empty(budget)
    for i in range(budget):
        params = opt.ask()
        value = landscape.objective_value(params)
        opt.tell(params, value)
        chosen.append(params)
        values[i] = value
    decisions = np.empty((budget, space.encoded_size + 1))
    decisions[:, :-1] = space.encode_batch(chosen)
    decisions[:, -1] = values
    best_value, _ = opt.best
    return {"seed": int(seed), "budget": budget,
            "best": float(best_value), "decisions": decisions}


def testbed_world(seed: int, config: dict) -> dict:
    """One-site :class:`Testbed` federation running a full campaign.

    Exercises the whole stack — kernel, bus, agents, orchestrator — so
    its decision hash is the strongest per-world determinism witness the
    repo has short of a full trace diff.
    """
    budget = int(config.get("budget", 15))
    n_sites = int(config.get("n_sites", 2))
    objective_key = str(config.get("objective_key", "plqy"))
    verified = bool(config.get("verified", True))
    site = (Testbed(seed=int(seed), n_sites=n_sites,
                    objective_key=objective_key)
            .site("site-0")
            .with_verification(verified))
    built = site.build()
    spec = CampaignSpec(name=f"world-{seed}", objective_key=objective_key,
                        max_experiments=budget)
    return built.run_report(spec).to_dict()


def service_world(seed: int, config: dict) -> dict:
    """Multi-tenant campaign service under a mixed open/closed load.

    The returned ``decisions`` rows are the service's terminal-transition
    log — campaign id, tenant, status, submit/start/finish times — so the
    hash witnesses admission control, fair-share dispatch order, *and*
    campaign outcomes.  Deferred imports keep the module import-light for
    worker processes that only run ``bo`` worlds.
    """
    from repro.service.loadgen import (LoadGenerator, TenantLoad,
                                       synthetic_runner)
    from repro.service.service import CampaignService, FacilitySlot
    from repro.sim.kernel import Simulator

    n_tenants = int(config.get("n_tenants", 4))
    n_slots = int(config.get("n_slots", 4))
    campaigns = int(config.get("campaigns", 6))
    experiments = int(config.get("experiments", 4))

    sim = Simulator()
    runner = synthetic_runner(sim, seed=int(seed),
                              mean_experiment_s=240.0)
    service = CampaignService(
        sim, [FacilitySlot(f"slot-{i}", runner) for i in range(n_slots)])
    loads = []
    for i in range(n_tenants):
        if i % 2 == 0:
            loads.append(TenantLoad(
                name=f"tenant-{i}", mode="closed", campaigns=campaigns,
                concurrency=2, experiments=experiments,
                share=1.0 + (i % 3)))
        else:
            loads.append(TenantLoad(
                name=f"tenant-{i}", mode="open", campaigns=campaigns,
                arrival_rate_per_s=1.0 / 300.0, experiments=experiments,
                deadline_s=float(config.get("deadline_s", 50_000.0))))
    gen = LoadGenerator(service, loads, seed=int(seed))
    summary = gen.run()
    return {"seed": int(seed), **summary,
            "decisions": service.decision_log()}


def mesh_world(seed: int, config: dict) -> dict:
    """Facility-sharded data mesh under a governance workload.

    N facilities ingest records into a
    :class:`~repro.data.shard.ShardedDiscoveryIndex`-backed federation,
    link cross-shard provenance, then run discovery queries and
    cross-site fetches.  The returned decision rows pin every query's
    result count, so the hash witnesses shard routing, inverted-index
    correctness, *and* replication-lag timing.

    Observability is bounded by construction: the tracer ring holds
    ``max_trace_events`` and the ingest rollup is a fixed window ring.
    Two side-channel config keys are deliberately **excluded** from the
    returned (hashed) value so recorded and replayed runs digest
    identically: ``trace_spill`` (path for the incremental JSONL trace
    spill) and ``provenance_out`` (path for the merged provenance dump).
    """
    from repro.data.fair import FairGovernor
    from repro.data.mesh import FederatedDataMesh
    from repro.data.provenance import qualified
    from repro.data.record import DataRecord
    from repro.data.shard import ShardedDiscoveryIndex
    from repro.net.topology import Topology
    from repro.net.transport import Network
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.rollup import WindowedCounter
    from repro.obs.trace import Tracer
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

    n_facilities = int(config.get("n_facilities", 12))
    n_shards = int(config.get("n_shards", 4))
    records_per = int(config.get("records_per_facility", 3))
    queries = int(config.get("queries", n_facilities))
    fetches = int(config.get("fetches", min(n_facilities, 6)))
    max_trace_events = int(config.get("max_trace_events", 512))
    index_latency_s = float(config.get("index_latency_s", 0.5))
    govern = bool(config.get("govern", True))

    sim = Simulator()
    rngs = RngRegistry(seed=int(seed))
    rng = rngs.stream("mesh")
    topo = Topology.national_lab_testbed(n_facilities)
    net = Network(sim, topo, rngs.stream("net"))
    metrics = MetricsRegistry()
    tracer = Tracer(sim, run_id=f"mesh-{seed}",
                    max_events=max_trace_events,
                    spill=config.get("trace_spill"), metrics=metrics)
    index = ShardedDiscoveryIndex(n_shards)
    mesh = FederatedDataMesh(sim, net, index=index, index_site="site-0")
    for i in range(n_facilities):
        mesh.make_node(f"site-{i}", f"Lab {i}",
                       governor=FairGovernor() if govern else None,
                       index_latency_s=index_latency_s)

    techniques = ("powder-xrd", "uv-vis", "saxs", "xps", "raman", "nmr")
    ingest_rate = WindowedCounter(window_s=60.0, n_windows=32)
    produced: list[list[str]] = [[] for _ in range(n_facilities)]
    decisions: list[list[float]] = []
    fetched_bytes = [0.0]

    def campaign():
        with tracer.span("mesh-campaign", seed=int(seed)):
            with tracer.span("ingest"):
                for round_no in range(records_per):
                    for i in range(n_facilities):
                        site = f"site-{i}"
                        node = mesh.nodes[site]
                        tech = techniques[int(rng.integers(len(techniques)))]
                        rec = DataRecord(
                            source=f"instrument-{i}",
                            values={"plqy": float(rng.random()),
                                    "yield_pct": float(100 * rng.random())},
                            metadata={"technique": tech}, time=sim.now)
                        node.provenance.entity(rec.record_id)
                        act = node.provenance.activity(
                            f"syn-{rec.record_id}", started=sim.now,
                            ended=sim.now + 30.0)
                        node.provenance.was_generated_by(rec.record_id, act)
                        agent = node.provenance.agent(f"planner-{site}")
                        node.provenance.was_associated_with(act, agent)
                        # Every non-first record derives from the previous
                        # round's record at the ring neighbour — a foreign
                        # shard, referenced by fully-qualified id.
                        j = (i + 1) % n_facilities
                        if produced[j]:
                            node.provenance.was_derived_from(
                                rec.record_id,
                                qualified(f"site-{j}", produced[j][-1]),
                                cross_shard=True)
                        node.ingest(rec)
                        produced[i].append(rec.record_id)
                        ingest_rate.inc(sim.now)
                        tracer.instant("ingest", site=site,
                                       record=rec.record_id, technique=tech)
                    yield sim.timeout(1.0)
                # Let index replication drain before governance queries.
                yield sim.timeout(index_latency_s)
            with tracer.span("discover"):
                for q in range(queries):
                    from_idx = q % n_facilities
                    tech_idx = q % len(techniques)
                    entries = yield from mesh.discover(
                        f"site-{from_idx}",
                        **{"metadata.technique": techniques[tech_idx]})
                    decisions.append([float(q), float(from_idx),
                                      float(tech_idx), float(len(entries))])
                    tracer.instant("discover", site=f"site-{from_idx}",
                                   technique=techniques[tech_idx],
                                   results=len(entries))
            with tracer.span("fetch"):
                for f in range(fetches):
                    src = (f * 2 + 1) % n_facilities
                    if not produced[src]:
                        continue
                    record = yield from mesh.fetch(
                        produced[src][f % len(produced[src])],
                        to_site=f"site-{f % n_facilities}")
                    fetched_bytes[0] += record.size_bytes()
                    tracer.instant("fetch", record=record.record_id)

    sim.process(campaign())
    sim.run()

    merged = mesh.merged_provenance(namespaced=True)
    sampled = [qualified(f"site-{i}", produced[i][0])
               for i in range(n_facilities) if produced[i]]
    completeness = (sum(merged.completeness(e) for e in sampled)
                    / len(sampled)) if sampled else 0.0

    if config.get("provenance_out"):
        import json
        with open(str(config["provenance_out"]), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump(merged.to_dict(), fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")
    tracer.close_spill()

    return {
        "seed": int(seed),
        "n_facilities": n_facilities,
        "n_shards": n_shards,
        "records": int(sum(len(p) for p in produced)),
        "decisions": np.asarray(decisions, dtype=float),
        "fetched_bytes": float(fetched_bytes[0]),
        "index": {k: int(v) for k, v in sorted(index.stats.items())},
        "shard_sizes": index.shard_sizes(),
        "provenance": {"nodes": len(merged),
                       "edges": merged.edge_count,
                       "pending": len(merged.pending_stitches),
                       "completeness": float(completeness)},
        "rollup": {"total": ingest_rate.total, "rate": ingest_rate.rate()},
        # Spill-invariant trace accounting: emitted and retained counts
        # are identical with or without a spill sink attached.
        "trace": {"events": tracer._seq,
                  "retained": len(tracer.events)},
    }


#: name -> entrypoint, for the CLI and config-driven sweeps.
WORLD_KINDS = {"bo": bo_world, "mesh": mesh_world, "service": service_world,
               "testbed": testbed_world}

#: The worlds whose entrypoint reads ``config["budget"]``; the others
#: ignore it, so the CLI refuses ``--budget`` for them.
BUDGET_WORLDS = frozenset({"bo", "testbed"})
