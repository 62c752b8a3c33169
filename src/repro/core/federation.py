"""Multi-site federation assembly and sample logistics.

:class:`FederationManager` wires the whole AISLE stack for N laboratories
— topology, transport, zero-trust security, service discovery and data
mesh — and stamps out :class:`LabSite` bundles (instruments +
HAL + twin + agent trio) ready for orchestration.  It is the builder the
examples and multi-site experiments (E3, E10, F1) share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.agents.evaluator import EvaluatorAgent
from repro.agents.executor import ExecutorAgent
from repro.agents.llm import SimulatedLLM
from repro.agents.planner import PlannerAgent
from repro.comm.registry import ServiceRecord, ServiceRegistry
from repro.core.faulttol import FaultTolerantExecutor
from repro.core.knowledge import KnowledgeBase
from repro.core.manual import ManualOrchestrator
from repro.core.orchestrator import HierarchicalOrchestrator
from repro.core.verification import (PhysicsConstraintVerifier, TwinVerifier,
                                     VerificationStack)
from repro.data.fair import FairGovernor
from repro.data.mesh import DataMeshNode, FederatedDataMesh
from repro.instruments.flow_reactor import FluidicReactor
from repro.instruments.hal import HardwareAbstractionLayer
from repro.instruments.spectrometer import PLSpectrometer
from repro.instruments.synthesis import BatchSynthesisRobot
from repro.instruments.twin import DigitalTwin
from repro.instruments.vendors import make_vendor_protocol
from repro.labsci.landscapes import Landscape
from repro.net.faults import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.resilience import ChaosController
from repro.security.abac import (PolicyEngine, allow_all_within_federation,
                                 standard_lab_policy)
from repro.security.identity import (FederatedIdentityProvider, Identity,
                                     TrustFabric)
from repro.security.zerotrust import ZeroTrustGateway
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.methods.baselines import AskTellOptimizer


@dataclass
class LabSite:
    """Everything one laboratory contributes to the federation."""

    name: str
    institution: str
    landscape: Landscape
    hal: HardwareAbstractionLayer
    synthesis: Any
    characterization: Any
    twin: DigitalTwin
    planner: PlannerAgent
    executor: ExecutorAgent
    evaluator: EvaluatorAgent
    optimizer: "AskTellOptimizer"
    mesh_node: Optional[DataMeshNode] = None
    vendor: str = "aisle-ref"

    def instruments(self) -> list[Any]:
        return [self.synthesis, self.characterization]


#: Safety/science envelope for quantum-dot/perovskite style chemistry:
#: tighter than hardware interlocks on purpose.
DEFAULT_SAFETY_ENVELOPE = {"temperature": (0.0, 205.0),
                           "dopant_conc": (0.0, 0.5)}
DEFAULT_FORBIDDEN = [{"solvent": "DMF", "temperature": (160.0, None)},
                     {"solvent": "toluene", "temperature": (180.0, None)}]


def clip_space_to_envelope(space, envelope: dict):
    """Intersect a parameter space's continuous bounds with an envelope.

    Points in the clipped space remain valid in the original space, so
    landscapes and instruments accept them unchanged.
    """
    from repro.labsci.landscapes import ContinuousDim, ParameterSpace
    dims = []
    for d in space.dims:
        if isinstance(d, ContinuousDim) and d.name in envelope:
            lo, hi = envelope[d.name]
            dims.append(ContinuousDim(d.name, max(d.low, float(lo)),
                                      min(d.high, float(hi)), d.unit))
        else:
            dims.append(d)
    return ParameterSpace(dims)


class FederationManager:
    """Builds and owns the shared cross-institution infrastructure.

    Parameters
    ----------
    seed:
        Root seed for every stochastic component.
    n_sites:
        Number of laboratories (testbed topology size).
    objective_key:
        The measured property campaigns optimize.
    secure:
        Wire the zero-trust stack (identity, ABAC, gateway).
    with_mesh:
        Attach a federated data mesh node per lab, over one flat
        :class:`~repro.data.mesh.DiscoveryIndex`.
    metrics:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry`; one
        is created when omitted so ``fed.metrics`` always sees the whole
        federation (transport, HAL, fault tolerance, campaigns).

    ``tracer`` starts as the no-op tracer; assign a
    :class:`~repro.obs.trace.Tracer` before :meth:`make_orchestrator` to
    thread it into every orchestrator and fault-tolerant executor.

    The WAN is :meth:`~repro.net.topology.Topology.national_lab_testbed`
    at its defaults (0.02 s per link, 0.002 s jitter), and every lab built
    by :meth:`add_lab` gets :data:`DEFAULT_SAFETY_ENVELOPE`,
    :data:`DEFAULT_FORBIDDEN` and a
    :class:`~repro.methods.nested.NestedBayesianOptimizer`.
    """

    def __init__(self, seed: int = 0, n_sites: int = 3, *,
                 objective_key: str = "plqy", secure: bool = False,
                 with_mesh: bool = False,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.objective_key = objective_key
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = NULL_TRACER
        self.topology = Topology.national_lab_testbed(n_sites)
        self.faults = FaultInjector(self.sim)
        self.chaos = ChaosController(self.sim, self.faults,
                                     rngs=self.rngs, metrics=self.metrics)
        self.network = Network(self.sim, self.topology,
                               self.rngs.stream("net"), self.faults,
                               metrics=self.metrics)
        self.registry = ServiceRegistry(self.sim)
        self.labs: dict[str, LabSite] = {}

        self.fabric: Optional[TrustFabric] = None
        self.gateway: Optional[ZeroTrustGateway] = None
        if secure:
            self.fabric = TrustFabric()
            engine = PolicyEngine(allow_all_within_federation())
            site_institution = {}
            for site in self.topology.sites():
                inst = site.institution or site.name
                idp = FederatedIdentityProvider(self.sim, inst)
                idp.enroll(Identity.make(f"agent@{inst}", inst, role="agent"))
                self.fabric.add_provider(idp)
                engine.set_policy(inst, standard_lab_policy(inst))
                site_institution[site.name] = inst
            self.fabric.federate()
            self.gateway = ZeroTrustGateway(self.sim, self.fabric, engine,
                                            site_institution=site_institution)

        self.mesh: Optional[FederatedDataMesh] = None
        if with_mesh:
            self.mesh = FederatedDataMesh(self.sim, self.network)

    # -- lab construction ----------------------------------------------------------

    def add_lab(self, site_name: str,
                landscape_factory: Callable[[str], Landscape], *,
                synthesis_kind: str = "flow", vendor: str = "aisle-ref",
                planner_mode: str = "hierarchical",
                hallucination_rate: float = 0.25,
                mtbf_hours: float = float("inf"),
                repair_time_s: float = 3600.0) -> LabSite:
        """Create a fully wired laboratory at ``site_name``."""
        if site_name in self.labs:
            raise ValueError(f"lab already exists at {site_name!r}")
        if not self.topology.has_site(site_name):
            raise KeyError(f"{site_name!r} is not in the topology")
        site = self.topology.site(site_name)
        institution = site.institution or site_name
        landscape = landscape_factory(site_name)
        # Copies: the twin and the planner each hold on to them.
        safety = dict(DEFAULT_SAFETY_ENVELOPE)
        forbidden = list(DEFAULT_FORBIDDEN)

        # Instruments behind a vendor protocol + HAL (M1).
        hal = HardwareAbstractionLayer(metrics=self.metrics)
        if synthesis_kind == "flow":
            synthesis = FluidicReactor(
                self.sim, f"reactor.{site_name}", site_name, self.rngs,
                landscape, mtbf_hours=mtbf_hours, repair_time_s=repair_time_s)
        elif synthesis_kind == "batch":
            synthesis = BatchSynthesisRobot(
                self.sim, f"robot.{site_name}", site_name, self.rngs,
                landscape, mtbf_hours=mtbf_hours, repair_time_s=repair_time_s)
        else:
            raise ValueError(f"unknown synthesis kind {synthesis_kind!r}")
        characterization = PLSpectrometer(
            self.sim, f"spec.{site_name}", site_name, self.rngs,
            mtbf_hours=mtbf_hours, repair_time_s=repair_time_s)
        hal.register(make_vendor_protocol(synthesis, vendor))
        hal.register(make_vendor_protocol(characterization, "aisle-ref"))
        twin = DigitalTwin(synthesis, landscape=landscape, rngs=self.rngs,
                           safety_envelope=safety,
                           forbidden_combinations=forbidden)

        # Advertise to the service registry (M12 substrate).
        self.registry.register(ServiceRecord(
            instance=synthesis.name, service_type="_instrument._aisle",
            site=site_name, capabilities=synthesis.capability_descriptor(),
            ttl_s=1e12))

        # Agent trio.  The optimizer searches the *safety-clipped* space:
        # campaign designers configure sound methods with the safe
        # operating region, so only free-form LLM proposals can stray
        # (which is exactly what verification exists to catch).
        search_space = clip_space_to_envelope(landscape.space, safety)
        # Imported here, so a world pays for repro.methods (and scipy)
        # only when it builds an optimizer.
        from repro.methods.nested import NestedBayesianOptimizer
        optimizer = NestedBayesianOptimizer(
            search_space, self.rngs.stream(f"opt/{site_name}"))
        llm = SimulatedLLM(self.sim, self.rngs.stream(f"llm/{site_name}"),
                           hallucination_rate=hallucination_rate)
        planner = PlannerAgent(self.sim, f"planner.{site_name}", site_name,
                               optimizer, llm,
                               mode=planner_mode, safety_envelope=safety)
        executor = ExecutorAgent(self.sim, f"executor.{site_name}",
                                 site_name, hal, synthesis.name,
                                 characterization, self.objective_key)
        evaluator = EvaluatorAgent(self.sim, f"evaluator.{site_name}",
                                   site_name, planner)

        mesh_node = None
        if self.mesh is not None:
            mesh_node = self.mesh.make_node(
                site_name, institution, governor=FairGovernor(),
                gateway=self.gateway)

        lab = LabSite(name=site_name, institution=institution,
                      landscape=landscape, hal=hal, synthesis=synthesis,
                      characterization=characterization, twin=twin,
                      planner=planner, executor=executor,
                      evaluator=evaluator, optimizer=optimizer,
                      mesh_node=mesh_node, vendor=vendor)
        self.labs[site_name] = lab
        return lab

    # -- orchestrator assembly ------------------------------------------------------

    def verification_stack(self, lab: LabSite) -> VerificationStack:
        physics = PhysicsConstraintVerifier(
            lab.landscape.space,
            safety_envelope=lab.twin.safety_envelope,
            forbidden_combinations=lab.twin.forbidden_combinations,
            outcome_bounds={"objective": (0.0, 1.0)})
        return VerificationStack(self.sim, [
            physics,
            TwinVerifier(lab.twin, objective_key=self.objective_key),
        ])

    def make_orchestrator(self, lab: LabSite, *, verified: bool = True,
                          knowledge: Optional[KnowledgeBase] = None,
                          fault_tolerant: bool = False,
                          alternates: Optional[list[LabSite]] = None
                          ) -> HierarchicalOrchestrator:
        verification = self.verification_stack(lab) if verified else None
        ft = None
        if fault_tolerant:
            ft = FaultTolerantExecutor(
                self.sim, lab.executor,
                primary_instruments=lab.instruments(),
                alternates=[alt.executor for alt in (alternates or [])],
                metrics=self.metrics, tracer=self.tracer)
        return HierarchicalOrchestrator(
            self.sim, lab.planner, lab.executor, lab.evaluator,
            verification=verification, knowledge=knowledge,
            fault_tolerant=ft, mesh_node=lab.mesh_node,
            tracer=self.tracer, metrics=self.metrics)

    def make_manual(self, lab: LabSite, **kw: Any) -> ManualOrchestrator:
        return ManualOrchestrator(self.sim, lab.planner, lab.executor,
                                  lab.evaluator,
                                  rng=self.rngs.stream(f"human/{lab.name}"),
                                  **kw)

    def make_knowledge_base(self, policy: str = "corrected") -> KnowledgeBase:
        kb = KnowledgeBase(self.sim, self.network, policy=policy)
        for lab in self.labs.values():
            kb.register(lab.name, lab.optimizer, lab.landscape.space)
        return kb

    # -- logistics --------------------------------------------------------------------------

    def ship_sample(self, sample, dst_site: str,
                    shipping_time_s: float = 24 * 3600.0):
        """Generator: physically move a sample between sites.

        Unlike data, matter moves on courier timescales — the asymmetry
        that makes cross-facility *knowledge* sharing (bits, E3) so much
        cheaper than cross-facility sample logistics.
        """
        if sample.site == dst_site:
            return sample
        yield self.sim.timeout(shipping_time_s)
        sample.record(self.sim.now, "courier", f"shipped to {dst_site}")
        sample.site = dst_site
        return sample
