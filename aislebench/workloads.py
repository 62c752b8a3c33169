"""The four paper-shaped workloads of the AISLE end-to-end benchmark.

A workload runs *units*: one world built from one seed and simulated to
completion in a closed loop (one process, one thread, as fast as the host
allows; open-loop arrivals exist only in simulated time).  Every input a
unit needs is drawn from its seed here, in the benchmark, before the run
phase; the program under test only ever receives the generated inputs.

Each workload class provides:

- ``build(seed)`` -- world construction (counted in ``setup_s``);
- ``run(world)`` -- the run phase: everything after construction until the
  results are collected; returns an :class:`Outcome`;
- ``check(world, outcome)`` -- output checks, returning the names of the
  checks that failed (untimed);
- ``layer_counts(world, outcome)`` -- per-layer counts read after the run
  from the public ``stats`` the program already keeps (untimed).

World classes expose ``sim`` (the :class:`~repro.sim.kernel.Simulator`) so
the traced run can count kernel events through ``Simulator.step_hook``.
Their generator methods are the benchmark's own load processes; the
tracer attributes them to the ``bench`` layer (see ``BENCH_ENTRY_POINTS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.comm.bus import MessageBus
from repro.comm.message import Message, Performative
from repro.comm.rpc import RpcClient, RpcError, RpcServer, RpcTimeout
from repro.core.campaign import CampaignSpec
from repro.data.fair import FairGovernor
from repro.data.mesh import AccessDenied, FederatedDataMesh
from repro.data.provenance import qualified
from repro.data.record import DataRecord
from repro.data.shard import ShardedDiscoveryIndex
from repro.net.faults import FaultInjector
from repro.net.topology import Topology
from repro.net.transport import Network, NetworkError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.security.abac import PolicyEngine, allow_all_within_federation
from repro.security.identity import (FederatedIdentityProvider, Identity,
                                     TrustFabric)
from repro.security.zerotrust import SecurityError, ZeroTrustGateway
from repro.service.handle import CampaignStatus
from repro.service.loadgen import LoadGenerator, TenantLoad, synthetic_runner
from repro.service.service import CampaignService, FacilitySlot
from repro.service.tenants import TenantQuota
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.testbed import Testbed


@dataclass
class Outcome:
    """What one unit's run phase delivered (plain data)."""

    #: Operations completed: the numerator of the workload's throughput.
    ops: int
    #: Operations attempted and failed (the ``failed_fraction`` parts).
    attempted: int
    failed: int
    #: Sim-time latency samples: submit-to-complete per campaign
    #: (service) or per RPC call (coordination).
    latencies: list[float] = field(default_factory=list)
    #: Plain data pinning every decision the unit made (digested).
    decisions: Any = None


def _share(part: float, whole: float) -> float:
    return float(part) / float(whole) if whole else 0.0


def _net_counts(network: Network) -> dict[str, float]:
    stats = network.stats
    return {"net.transfers": stats["transfers"], "net.lost": stats["lost"],
            "net.transfer_sim_s": stats["total_latency"]}


def _mesh_counts(mesh: FederatedDataMesh) -> dict[str, float]:
    nodes = [mesh.nodes[site] for site in sorted(mesh.nodes)]
    index = mesh.index.stats
    return {
        "data.ingested": sum(n.stats["ingested"] for n in nodes),
        "data.fetches": sum(n.stats["served"] for n in nodes),
        "data.index_queries": index["queries"],
        "data.index_hit_share": _share(
            index["index_hits"], index["index_hits"] + index["index_misses"]),
        "data.provenance_nodes": sum(len(n.provenance) for n in nodes),
    }


# -- campaign: the M8/M9 loop -------------------------------------------------


KNOWN_STOP_REASONS = ("budget-exhausted", "target-reached", "converged",
                      "verification-stalemate", "instrument-fault")


@dataclass
class CampaignWorld:
    sim: Simulator
    built: Any
    specs: list
    procs: list


class Campaign:
    """Three labs run 40-experiment campaigns concurrently in one simulator.

    Corrected knowledge sharing, a data mesh, verification, the
    hierarchical planner and the quantum-dot landscape: plan -> verify ->
    execute -> evaluate -> share.
    """

    name = "campaign"
    sites = ("site-0", "site-1", "site-2")
    budget = 40

    def build(self, seed: int) -> CampaignWorld:
        testbed = Testbed(seed=seed, n_sites=len(self.sites))
        for site in self.sites:
            testbed.site(site)
        built = testbed.with_knowledge().with_mesh().build()
        specs = [CampaignSpec(name=f"{site}-{seed}", objective_key="plqy",
                              max_experiments=self.budget)
                 for site in self.sites]
        procs = [built.sim.process(built.orchestrator(site).run_campaign(spec))
                 for site, spec in zip(self.sites, specs)]
        return CampaignWorld(built.sim, built, specs, procs)

    def run(self, world: CampaignWorld) -> Outcome:
        world.sim.run()
        results = [proc.value for proc in world.procs]
        experiments = sum(r.n_experiments for r in results)
        invalid = sum(r.n_experiments - r.n_valid for r in results)
        skipped = sum(r.counters["skipped_plans"] for r in results)
        return Outcome(
            ops=experiments, attempted=experiments + skipped,
            failed=invalid + skipped,
            decisions=[[r.stop_reason,
                        [[rec.params, rec.valid, rec.objective, rec.source,
                          rec.started, rec.finished] for rec in r.records]]
                       for r in results])

    def check(self, world: CampaignWorld, outcome: Outcome) -> list[str]:
        failures = []
        for spec, proc in zip(world.specs, world.procs):
            result = proc.value
            if not result.stop_reason.startswith(KNOWN_STOP_REASONS):
                failures.append(f"campaign.stop_reason[{spec.name}]")
            if (result.n_experiments != spec.max_experiments
                    and result.stop_reason != "target-reached"):
                failures.append(f"campaign.experiment_count[{spec.name}]")
        return failures

    def layer_counts(self, world: CampaignWorld,
                     outcome: Outcome) -> dict[str, float]:
        fed = world.built.fed
        labs = [fed.labs[site] for site in self.sites]
        stacks = [world.built.orchestrator(site).verification
                  for site in self.sites]
        instruments = [i for lab in labs for i in lab.instruments()]
        checked = sum(s.stats["plans"] for s in stacks)
        rejected = sum(s.stats["rejected"] for s in stacks)
        return {
            "agents.plans": sum(lab.planner.plan_stats["plans"]
                                for lab in labs),
            "agents.repairs": sum(lab.planner.plan_stats["repairs"]
                                  for lab in labs),
            "agents.llm_calls": sum(lab.planner.llm.stats["calls"]
                                    for lab in labs),
            "core.verify_calls": checked,
            "core.verify_accept_share": _share(checked - rejected, checked),
            "core.knowledge_absorbed":
                world.built.knowledge.stats["absorbed"],
            "instruments.operations": sum(i.stats["operations"]
                                          for i in instruments),
            "instruments.busy_sim_s": sum(i.stats["busy_time"]
                                          for i in instruments),
            **_mesh_counts(fed.mesh),
            **_net_counts(fed.network),
        }


# -- service: multi-tenant campaign service ----------------------------------


@dataclass
class ServiceWorld:
    sim: Simulator
    service: CampaignService
    loadgen: LoadGenerator


class Service:
    """Eight tenants push 1200 six-experiment campaigns through 32 slots.

    Four closed-loop tenants keep 40 campaigns in flight; four open-loop
    tenants arrive as Poisson streams at 0.1/s with deadlines.  Quotas are
    40 in flight and 200 queued per tenant.
    """

    name = "service"
    slots = 32
    campaigns_per_tenant = 150
    experiments = 6

    def build(self, seed: int) -> ServiceWorld:
        sim = Simulator()
        runner = synthetic_runner(sim, seed=seed, mean_experiment_s=240.0)
        service = CampaignService(
            sim, [FacilitySlot(f"slot-{i}", runner)
                  for i in range(self.slots)])
        quota = TenantQuota(max_in_flight=40, max_queued=200)
        loads = [TenantLoad(name=f"closed-{i}", mode="closed",
                            campaigns=self.campaigns_per_tenant,
                            concurrency=40, experiments=self.experiments,
                            quota=quota)
                 for i in range(4)]
        loads += [TenantLoad(name=f"open-{i}", mode="open",
                             campaigns=self.campaigns_per_tenant,
                             arrival_rate_per_s=0.1,
                             experiments=self.experiments,
                             deadline_s=200_000.0, quota=quota)
                  for i in range(4)]
        return ServiceWorld(sim, service, LoadGenerator(service, loads,
                                                        seed=seed))

    @staticmethod
    def _handles(world: ServiceWorld) -> list:
        return [h for name in sorted(world.loadgen.handles)
                for h in world.loadgen.handles[name]]

    def run(self, world: ServiceWorld) -> Outcome:
        world.loadgen.run()
        handles = self._handles(world)
        rejected = sum(world.loadgen.rejections.values())
        done = [h for h in handles if h.status is CampaignStatus.COMPLETED]
        submitted = len(handles) + rejected
        return Outcome(
            ops=len(done), attempted=submitted,
            failed=submitted - len(done),
            latencies=[h.latency for h in done],
            decisions=[world.service.decision_log(),
                       sorted(world.loadgen.rejections.items())])

    def check(self, world: ServiceWorld, outcome: Outcome) -> list[str]:
        handles = self._handles(world)
        by_status = {s: 0 for s in CampaignStatus}
        for h in handles:
            by_status[h.status] += 1
        rejected = sum(world.loadgen.rejections.values())
        accounted = (by_status[CampaignStatus.COMPLETED] + rejected
                     + by_status[CampaignStatus.EXPIRED]
                     + by_status[CampaignStatus.FAILED]
                     + by_status[CampaignStatus.CANCELLED])
        if len(handles) + rejected != accounted:
            return ["service.submitted_accounting"]
        return []

    def layer_counts(self, world: ServiceWorld,
                     outcome: Outcome) -> dict[str, float]:
        return {
            "service.submitted": outcome.attempted,
            "service.dispatched": world.service.scheduler.stats["dispatched"],
            # Samples: pooled over units into p50/p99 by the worker.
            "service.queue_wait_sim_s": [h.queue_wait
                                         for h in self._handles(world)
                                         if h.queue_wait is not None],
            "service.peak_in_system": world.service.peak_in_system,
        }


# -- mesh: the 1000-facility data mesh ---------------------------------------


TECHNIQUES = ("powder-xrd", "uv-vis", "saxs", "xps", "raman", "nmr")


@dataclass
class MeshWorld:
    """A 1000-facility sharded mesh plus the seeded inputs it will see."""

    sim: Simulator
    network: Network
    mesh: FederatedDataMesh
    tracer: Tracer
    techniques: np.ndarray      # (rounds, facilities) technique index
    values: np.ndarray          # (rounds, facilities, 2) plqy, yield
    query_sites: np.ndarray
    query_techniques: np.ndarray
    fetch_sources: np.ndarray
    fetch_rounds: np.ndarray
    fetch_targets: np.ndarray
    produced: list = field(default_factory=list)
    found: list = field(default_factory=list)
    fetched: list = field(default_factory=list)
    failed: int = 0

    def drive(self):
        """Bench load process: ingest rounds, then discover, then fetch."""
        with self.tracer.span("ingest"):
            yield from self._ingest()
        with self.tracer.span("discover"):
            yield from self._discover()
        with self.tracer.span("fetch"):
            yield from self._fetch()

    def _ingest(self):
        sim, mesh = self.sim, self.mesh
        rounds, n_fac = self.techniques.shape
        for r in range(rounds):
            round_ids = []
            for i in range(n_fac):
                site = f"site-{i}"
                node = mesh.nodes[site]
                plqy, yield_pct = self.values[r, i]
                rec = DataRecord(
                    source=f"instrument-{i}",
                    values={"plqy": float(plqy), "yield_pct": float(yield_pct)},
                    metadata={"technique": TECHNIQUES[self.techniques[r, i]]},
                    time=sim.now)
                prov = node.provenance
                prov.entity(rec.record_id)
                act = prov.activity(f"syn-{rec.record_id}", started=sim.now,
                                    ended=sim.now + 30.0)
                prov.was_generated_by(rec.record_id, act)
                prov.was_associated_with(act, prov.agent(f"planner-{site}"))
                if r:
                    # Cross-shard lineage: derived from the ring neighbour's
                    # previous-round record, referenced by qualified id.
                    j = (i + 1) % n_fac
                    prov.was_derived_from(
                        rec.record_id,
                        qualified(f"site-{j}", self.produced[r - 1][j]),
                        cross_shard=True)
                node.ingest(rec)
                round_ids.append(rec.record_id)
                self.tracer.instant("ingest", site=site, record=rec.record_id)
            self.produced.append(round_ids)
            yield sim.timeout(1.0)
        # Let index replication drain before the governance queries.
        yield sim.timeout(1.0)

    def _discover(self):
        for site, tech in zip(self.query_sites, self.query_techniques):
            try:
                entries = yield from self.mesh.discover(
                    f"site-{site}",
                    **{"metadata.technique": TECHNIQUES[tech]})
            except NetworkError:
                self.failed += 1
                self.found.append(-1)
                continue
            self.found.append(len(entries))

    def _fetch(self):
        for src, r, dst in zip(self.fetch_sources, self.fetch_rounds,
                               self.fetch_targets):
            try:
                record = yield from self.mesh.fetch(self.produced[r][src],
                                                    to_site=f"site-{dst}")
            except (AccessDenied, KeyError, NetworkError):
                self.failed += 1
                self.fetched.append(None)
                continue
            self.fetched.append(record.record_id)


def _spread(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` of ``n`` ring positions, evenly spaced from a seeded
    offset and in seeded order.

    Routing cost grows with hop distance, so drawing sites uniformly at
    random would make a unit's work depend on its seed; evenly spaced
    sites give every seed the same spread of distances.
    """
    step = n / count
    return rng.permutation(
        (np.arange(count) * step + rng.uniform(0.0, step)).astype(int) % n)


class Mesh:
    """1000 facilities, 32 shards: 5000 ingests with cross-shard
    provenance, 240 discovery queries and 60 cross-site fetches."""

    name = "mesh"
    facilities = 1000
    shards = 32
    rounds = 5
    queries = 240
    fetches = 60

    def build(self, seed: int) -> MeshWorld:
        rng = np.random.default_rng(seed)
        n = self.facilities
        techniques = rng.integers(len(TECHNIQUES), size=(self.rounds, n))
        values = rng.random((self.rounds, n, 2)) * np.array([1.0, 100.0])
        sim = Simulator()
        rngs = RngRegistry(seed)
        metrics = MetricsRegistry()
        network = Network(sim, Topology.national_lab_testbed(n),
                          rngs.stream("net"), metrics=metrics)
        tracer = Tracer(sim, run_id=f"mesh-{seed}", max_events=512,
                        metrics=metrics)
        mesh = FederatedDataMesh(sim, network,
                                 index=ShardedDiscoveryIndex(self.shards),
                                 index_site="site-0")
        for i in range(n):
            mesh.make_node(f"site-{i}", f"Lab {i}", governor=FairGovernor(),
                           index_latency_s=0.5)
        sources = _spread(rng, self.fetches, n)
        world = MeshWorld(
            sim, network, mesh, tracer, techniques, values,
            query_sites=_spread(rng, self.queries, n),
            query_techniques=rng.integers(len(TECHNIQUES), size=self.queries),
            fetch_sources=sources,
            fetch_rounds=rng.integers(self.rounds, size=self.fetches),
            fetch_targets=(sources + _spread(rng, self.fetches, n)) % n)
        sim.process(world.drive())
        return world

    def run(self, world: MeshWorld) -> Outcome:
        world.sim.run()
        ingests = sum(len(rnd) for rnd in world.produced)
        attempted = ingests + self.queries + self.fetches
        return Outcome(
            ops=attempted - world.failed, attempted=attempted,
            failed=world.failed,
            decisions=[world.found, world.fetched,
                       world.mesh.index.shard_sizes()])

    def check(self, world: MeshWorld, outcome: Outcome) -> list[str]:
        failures = []
        if sum(len(rnd) for rnd in world.produced) != world.techniques.size:
            failures.append("mesh.ingest_count")
        expected = np.bincount(world.techniques.ravel(),
                               minlength=len(TECHNIQUES))
        for q, (tech, found) in enumerate(zip(world.query_techniques,
                                              world.found)):
            if found != expected[tech]:
                failures.append(f"mesh.discovery_count[{q}]")
                break
        for f, (src, r, got) in enumerate(zip(world.fetch_sources,
                                              world.fetch_rounds,
                                              world.fetched)):
            if got != world.produced[r][src]:
                failures.append(f"mesh.fetch_record[{f}]")
                break
        return failures

    def layer_counts(self, world: MeshWorld,
                     outcome: Outcome) -> dict[str, float]:
        return {**_mesh_counts(world.mesh), **_net_counts(world.network)}


# -- coordination: zero-trust agents, RPC and telemetry (M11) -----------------


@dataclass
class CoordinationWorld:
    """Twelve sites: per-site agent, instrument server and telemetry."""

    sim: Simulator
    network: Network
    gateway: ZeroTrustGateway
    bus: MessageBus
    servers: list
    clients: list
    tokens: list
    call_targets: np.ndarray    # (sites, calls) target site index
    call_gaps: np.ndarray       # (sites, calls) think time before a call
    publish_gaps: np.ndarray    # (sites, publishes)
    consumer_site: str
    call_log: list = field(default_factory=list)
    published: list = field(default_factory=list)
    publish_failed: int = 0
    consumed: list = field(default_factory=list)
    consume_lost: int = 0

    def agent(self, i: int):
        """Bench load: site ``i``'s agent calling remote instruments."""
        client = self.clients[i]
        for k, (target, gap) in enumerate(zip(self.call_targets[i],
                                              self.call_gaps[i])):
            yield self.sim.timeout(float(gap))
            payload = {"site": i, "seq": k, "channels": [i, k, i + k]}
            try:
                result = yield from client.call(
                    self.servers[target], "measure", payload,
                    deadline_s=1.0, retries=2, backoff_s=0.05)
            except (RpcTimeout, RpcError) as exc:
                self.call_log.append([i, k, int(target),
                                      type(exc).__name__, None])
                continue
            self.call_log.append([i, k, int(target), "ok",
                                  result == payload])

    def publisher(self, i: int):
        """Bench load: site ``i``'s instrument streaming telemetry."""
        site = f"site-{i}"
        for k, gap in enumerate(self.publish_gaps[i]):
            yield self.sim.timeout(float(gap))
            msg = Message(Performative.INFORM, f"instrument@{site}",
                          f"lab.{site}.telemetry",
                          payload={"site": i, "seq": k, "reading": k * 0.5})
            try:
                routed = yield from self.bus.publish(
                    "telemetry", site, f"lab.{site}.telemetry", msg,
                    token=self.tokens[i])
            except (NetworkError, SecurityError):
                self.publish_failed += 1
                continue
            self.published.append([i, k, routed])

    def consumer(self):
        """Bench load: one consumer draining and acking the telemetry."""
        queue = self.bus.brokers["telemetry"].queues["telemetry"]
        while True:
            try:
                env = yield from self.bus.consume(
                    "telemetry", "telemetry", self.consumer_site,
                    token=self.tokens[0])
            except NetworkError:
                self.consume_lost += 1
                continue
            queue.ack(env)
            payload = env.message.payload
            self.consumed.append([payload["site"], payload["seq"]])


class Coordination:
    """A 12-site testbed with 0.5% loss per link and one 15 s outage.

    Each site's agent makes deadline-plus-retry RPC calls through the
    zero-trust gateway to instrument servers at other sites; each site's
    instrument publishes telemetry to a broker at ``site-0``; one consumer
    drains and acks it.
    """

    name = "coordination"
    n_sites = 12
    calls = 150
    publishes = 150
    outage_s = 15.0

    def build(self, seed: int) -> CoordinationWorld:
        rng = np.random.default_rng(seed)
        n = self.n_sites
        # Targets are the *other* sites: offset 1..n-1 from the caller.
        offsets = rng.integers(1, n, size=(n, self.calls))
        call_targets = (np.arange(n)[:, None] + offsets) % n
        call_gaps = rng.exponential(0.2, size=(n, self.calls))
        publish_gaps = rng.exponential(0.2, size=(n, self.publishes))
        outage_at = float(rng.uniform(5.0, 10.0))

        sim = Simulator()
        rngs = RngRegistry(seed)
        metrics = MetricsRegistry()
        topo = Topology.national_lab_testbed(n, latency_s=0.01,
                                             jitter_s=0.001, loss_prob=0.005)
        faults = FaultInjector(sim)
        network = Network(sim, topo, rngs.stream("net"), faults,
                          metrics=metrics)
        outage = topo.links()[int(rng.integers(len(topo.links())))]
        sim.schedule_callback(outage_at, lambda: faults.fail_link(
            outage[0], outage[1], duration=self.outage_s))

        fabric = TrustFabric()
        site_institution = {}
        for site in topo.sites():
            idp = FederatedIdentityProvider(sim, site.institution)
            idp.enroll(Identity.make(f"agent@{site.institution}",
                                     site.institution, role="agent"))
            fabric.add_provider(idp)
            site_institution[site.name] = site.institution
        fabric.federate()
        gateway = ZeroTrustGateway(
            sim, fabric, PolicyEngine(allow_all_within_federation()),
            site_institution=site_institution, verify_latency_s=0.001)
        tokens = [fabric.provider(f"Lab {i}").issue(f"agent@Lab {i}",
                                                    ttl_s=1e6)
                  for i in range(n)]

        servers = []
        for i in range(n):
            server = RpcServer(sim, f"instrument-{i}", site=f"site-{i}",
                               handler_delay_s=0.002)
            server.register("measure", lambda payload: payload)
            servers.append(server)
        clients = [RpcClient(sim, network, site=f"site-{i}",
                             identity=f"agent@Lab {i}", gateway=gateway,
                             token=tokens[i], metrics=metrics)
                   for i in range(n)]
        bus = MessageBus(sim, network, gateway=gateway, metrics=metrics)
        broker = bus.add_broker("telemetry", site="site-0")
        broker.declare_queue("telemetry")
        broker.bind("telemetry", "lab.#")

        world = CoordinationWorld(
            sim, network, gateway, bus, servers, clients, tokens,
            call_targets, call_gaps, publish_gaps,
            consumer_site=f"site-{n // 2}")
        for i in range(n):
            sim.process(world.agent(i))
            sim.process(world.publisher(i))
        sim.process(world.consumer())
        return world

    def run(self, world: CoordinationWorld) -> Outcome:
        world.sim.run()
        calls_ok = sum(1 for row in world.call_log if row[3] == "ok")
        attempted = (len(world.call_log) + len(world.published)
                     + world.publish_failed + len(world.consumed)
                     + world.consume_lost)
        latencies = [lat for c in world.clients for lat in c.latencies]
        ops = calls_ok + len(world.published) + len(world.consumed)
        return Outcome(
            ops=ops, attempted=attempted, failed=attempted - ops,
            latencies=latencies,
            decisions=[world.call_log, world.published, world.consumed,
                       latencies])

    def check(self, world: CoordinationWorld, outcome: Outcome) -> list[str]:
        failures = []
        if any(row[3] == "ok" and not row[4] for row in world.call_log):
            failures.append("coordination.rpc_payload")
        if len(world.call_log) != self.n_sites * self.calls:
            failures.append("coordination.rpc_count")
        queue = world.bus.brokers["telemetry"].queues["telemetry"]
        routed = sum(row[2] for row in world.published)
        if routed != len(world.consumed) + world.consume_lost + len(queue):
            failures.append("coordination.telemetry_accounting")
        return failures

    def layer_counts(self, world: CoordinationWorld,
                     outcome: Outcome) -> dict[str, float]:
        brokers = list(world.bus.brokers.values())
        queues = [q for b in brokers for q in b.queues.values()]
        clients = world.clients
        gw = world.gateway.stats
        return {
            "comm.published": sum(b.stats["published"] for b in brokers),
            "comm.delivered": sum(q.stats["delivered"] for q in queues),
            "comm.rpc_calls": sum(c.stats["calls"] for c in clients),
            "security.verified": gw["verified"],
            "security.rejected": gw["rejected_authn"] + gw["rejected_authz"],
            "resilience.retries": sum(c.stats["retries"] for c in clients),
            "resilience.timeouts": sum(c.stats["timeouts"] for c in clients),
            **_net_counts(world.network),
        }


WORKLOADS = {w.name: w for w in (Campaign(), Service(), Mesh(),
                                 Coordination())}

#: The benchmark's own load processes: traced as the ``bench`` layer.
BENCH_ENTRY_POINTS = ((MeshWorld, "drive"), (CoordinationWorld, "agent"),
                      (CoordinationWorld, "publisher"),
                      (CoordinationWorld, "consumer"))
