"""Fluent testbed builder — one readable chain instead of 8-kwarg wiring.

Every example and benchmark used to copy-paste the same dance: construct
a :class:`~repro.core.federation.FederationManager`, call ``add_lab`` with
half a dozen keywords, then ``make_orchestrator`` with more.  The
:class:`Testbed` facade replaces that with a declarative chain::

    built = (Testbed(seed=42, n_sites=2)
             .site("site-0")
             .with_instruments(synthesis="flow", vendor="kelvin-sci")
             .with_planner(mode="hierarchical")
             .with_verification()
             .build())
    result = built.run(CampaignSpec(name="qd", objective_key="plqy",
                                    max_experiments=60))

Each setting has one entry point.  Federation-wide toggles
(``with_mesh``, ``with_knowledge``, ``with_metrics``, ``with_tracing``)
live on :class:`Testbed`, so a chain sets them before its first
``.site(...)``; per-lab settings live on :class:`SiteBuilder`.  Every
lab gets the default safety envelope and a
:class:`~repro.methods.nested.NestedBayesianOptimizer`, and the WAN is
:meth:`~repro.net.topology.Topology.national_lab_testbed` at its default
latency.

Builders only *record* configuration; :meth:`Testbed.build` performs all
construction in declaration order through the FederationManager, so a
Testbed-built world is event-for-event identical to the hand-wired one on
the same seed (covered by tests/obs/test_testbed.py).

The old ``FederationManager`` / ``HierarchicalOrchestrator`` constructors
keep working — the builder is sugar, not a fork.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.campaign import CampaignResult, CampaignSpec
from repro.core.report import CampaignReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import CampaignService
from repro.core.federation import FederationManager, LabSite
from repro.core.knowledge import KnowledgeBase
from repro.core.orchestrator import HierarchicalOrchestrator
from repro.labsci import QuantumDotLandscape
from repro.labsci.landscapes import Landscape
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.kernel import Simulator


def _default_landscape(site: str) -> Landscape:
    return QuantumDotLandscape(seed=7)


@dataclass
class _SiteConfig:
    """Recorded (not yet built) configuration for one laboratory."""

    name: str
    landscape_factory: Callable[[str], Landscape] = _default_landscape
    synthesis_kind: str = "flow"
    vendor: str = "aisle-ref"
    planner_mode: str = "hierarchical"
    hallucination_rate: float = 0.25
    mtbf_hours: float = float("inf")
    repair_time_s: float = 3600.0
    verified: bool = True
    fault_tolerant: bool = False
    alternates: tuple[str, ...] = ()
    share_knowledge: bool = True


class SiteBuilder:
    """Per-site fluent configuration; chain back with :meth:`site` or
    finish with :meth:`build`.

    It holds only per-lab settings: landscape, instruments, planner,
    verification, fault tolerance and knowledge isolation.  Federation
    toggles are set on the :class:`Testbed` itself.
    """

    def __init__(self, testbed: "Testbed", config: _SiteConfig) -> None:
        self._testbed = testbed
        self._config = config

    # -- lab hardware ------------------------------------------------------

    def with_landscape(self,
                       factory: "Callable[[str], Landscape] | Landscape",
                       ) -> "SiteBuilder":
        """Ground-truth science at this site (factory or instance)."""
        if isinstance(factory, Landscape):
            instance = factory
            self._config.landscape_factory = lambda site: instance
        else:
            self._config.landscape_factory = factory
        return self

    def with_instruments(self, synthesis: str = "flow",
                         vendor: str = "aisle-ref", *,
                         mtbf_hours: float = float("inf"),
                         repair_time_s: float = 3600.0) -> "SiteBuilder":
        """Synthesis rig kind ("flow"/"batch"), vendor dialect, and MTBF."""
        self._config.synthesis_kind = synthesis
        self._config.vendor = vendor
        self._config.mtbf_hours = mtbf_hours
        self._config.repair_time_s = repair_time_s
        return self

    # -- agents ------------------------------------------------------------

    def with_planner(self, mode: str = "hierarchical", *,
                     hallucination_rate: float = 0.25) -> "SiteBuilder":
        self._config.planner_mode = mode
        self._config.hallucination_rate = hallucination_rate
        return self

    # -- orchestration -----------------------------------------------------

    def with_verification(self, enabled: bool = True) -> "SiteBuilder":
        """Vet every plan through the physics + twin stack (M8)."""
        self._config.verified = enabled
        return self

    def with_fault_tolerance(self, *alternates: str) -> "SiteBuilder":
        """Retry/repair/failover execution; name alternate sites to
        fail over to (they must also be declared on this testbed)."""
        self._config.fault_tolerant = True
        self._config.alternates = tuple(alternates)
        return self

    def isolated(self) -> "SiteBuilder":
        """Opt this site out of the shared knowledge base (the cold arm)."""
        self._config.share_knowledge = False
        return self

    # -- chaining ----------------------------------------------------------

    def site(self, name: str, **kw: Any) -> "SiteBuilder":
        """Start configuring the next laboratory."""
        return self._testbed.site(name, **kw)

    def build(self) -> "BuiltTestbed":
        return self._testbed.build()


class Testbed:
    """Declarative builder for a federation of autonomous laboratories.

    Parameters
    ----------
    seed:
        Root seed for every stochastic component.
    n_sites:
        Testbed topology size; defaults to the number of declared sites
        (minimum 2) when omitted.
    objective_key:
        The measured property campaigns optimize.

    The federation toggles (:meth:`with_mesh`, :meth:`with_knowledge`,
    :meth:`with_metrics`, :meth:`with_tracing`) are methods of this class only, so a one-expression chain sets them
    before its first :meth:`site`.
    """

    __test__ = False  # not a pytest test class, despite the name

    def __init__(self, seed: int = 0, *, n_sites: Optional[int] = None,
                 objective_key: str = "plqy") -> None:
        self._seed = seed
        self._n_sites = n_sites
        self._objective_key = objective_key
        self._with_mesh = False
        self._with_knowledge = False
        self._metrics: Optional[MetricsRegistry] = None
        self._with_tracing = False
        self._sites: list[_SiteConfig] = []

    # -- federation-level toggles -----------------------------------------

    def with_mesh(self) -> "Testbed":
        """Attach a federated data-mesh node to every lab."""
        self._with_mesh = True
        return self

    def with_knowledge(self) -> "Testbed":
        """Share a knowledge base (M9, ``"corrected"`` policy) across all
        non-isolated sites."""
        self._with_knowledge = True
        return self

    def with_metrics(self) -> "Testbed":
        """Collect all counters/histograms in one shared registry."""
        self._metrics = MetricsRegistry()
        return self

    def with_tracing(self) -> "Testbed":
        """Trace every campaign as a span tree (see :mod:`repro.obs`).

        The tracer is created at :meth:`build` time, bound to the built
        simulator, and exposed as ``built.tracer``.
        """
        self._with_tracing = True
        return self

    # -- sites -------------------------------------------------------------

    def site(self, name: str, *,
             landscape: "Callable[[str], Landscape] | Landscape | None" = None,
             ) -> SiteBuilder:
        """Declare a laboratory at topology site ``name``."""
        if any(cfg.name == name for cfg in self._sites):
            raise ValueError(f"site {name!r} already declared")
        config = _SiteConfig(name=name)
        self._sites.append(config)
        builder = SiteBuilder(self, config)
        if landscape is not None:
            builder.with_landscape(landscape)
        return builder

    # -- construction ------------------------------------------------------

    def build(self) -> "BuiltTestbed":
        """Construct the federation, labs, and orchestrators, in
        declaration order (the determinism contract hinges on this)."""
        if not self._sites:
            raise ValueError("declare at least one site before build()")
        n_sites = self._n_sites
        if n_sites is None:
            n_sites = max(2, len(self._sites))
        fed = FederationManager(
            seed=self._seed, n_sites=n_sites,
            objective_key=self._objective_key, with_mesh=self._with_mesh,
            metrics=self._metrics)
        if self._with_tracing:
            fed.tracer = Tracer(fed.sim, run_id=f"testbed-{self._seed}")

        for cfg in self._sites:
            fed.add_lab(cfg.name,
                        landscape_factory=cfg.landscape_factory,
                        synthesis_kind=cfg.synthesis_kind, vendor=cfg.vendor,
                        planner_mode=cfg.planner_mode,
                        hallucination_rate=cfg.hallucination_rate,
                        mtbf_hours=cfg.mtbf_hours,
                        repair_time_s=cfg.repair_time_s)

        knowledge: Optional[KnowledgeBase] = None
        if self._with_knowledge:
            knowledge = fed.make_knowledge_base()

        orchestrators: dict[str, HierarchicalOrchestrator] = {}
        for cfg in self._sites:
            lab = fed.labs[cfg.name]
            alternates = [fed.labs[alt] for alt in cfg.alternates]
            kb = knowledge if cfg.share_knowledge else None
            orchestrators[cfg.name] = fed.make_orchestrator(
                lab, verified=cfg.verified, knowledge=kb,
                fault_tolerant=cfg.fault_tolerant,
                alternates=alternates or None)
        return BuiltTestbed(fed, orchestrators, knowledge)


class BuiltTestbed:
    """The assembled world: federation, labs, and ready orchestrators."""

    def __init__(self, fed: FederationManager,
                 orchestrators: dict[str, HierarchicalOrchestrator],
                 knowledge: Optional[KnowledgeBase]) -> None:
        self.fed = fed
        self.orchestrators = orchestrators
        self.knowledge = knowledge

    @property
    def sim(self) -> Simulator:
        return self.fed.sim

    @property
    def metrics(self) -> MetricsRegistry:
        return self.fed.metrics

    @property
    def tracer(self) -> Tracer:
        return self.fed.tracer

    @property
    def chaos(self):
        """The federation's :class:`~repro.resilience.ChaosController`."""
        return self.fed.chaos

    def lab(self, site: Optional[str] = None) -> LabSite:
        return self.fed.labs[self._pick(site)]

    def orchestrator(self, site: Optional[str] = None,
                     ) -> HierarchicalOrchestrator:
        return self.orchestrators[self._pick(site)]

    def _pick(self, site: Optional[str]) -> str:
        if site is not None:
            return site
        if len(self.orchestrators) != 1:
            raise ValueError(
                f"multiple sites {sorted(self.orchestrators)}: name one")
        return next(iter(self.orchestrators))

    def run(self, spec: CampaignSpec,
            site: Optional[str] = None) -> CampaignResult:
        """Run one site's campaign to completion and return the result."""
        orch = self.orchestrator(site)
        proc = self.sim.process(orch.run_campaign(spec))
        return self.sim.run(until=proc)

    def run_report(self, spec: CampaignSpec) -> "CampaignReport":
        """Run a campaign and return its canonical
        :class:`~repro.core.report.CampaignReport`.

        This is the unified front door: the report is typed, plain-data
        (``.to_dict()`` is picklable and canonical enough for
        :func:`repro.scale.hashing.decision_hash` to digest — its
        ``decisions`` rows pin the full per-experiment sequence, not
        just the winner), and the same shape the campaign service
        returns, so single-site runs, scale-out worlds, and multi-tenant
        service runs all speak one result type.
        """
        result = self.run(spec)
        return CampaignReport.from_result(result,
                                          sim_seconds=float(self.sim.now),
                                          target=spec.target)

    def as_service(self) -> "CampaignService":
        """A multi-tenant :class:`~repro.service.CampaignService` with one
        facility slot per site; each slot runs campaigns through that
        site's orchestrator, so admission, fair-share and reporting wrap
        the full A1 stack."""
        from repro.service.service import CampaignService, FacilitySlot
        slots = [FacilitySlot(name=name, runner=orch.run_campaign)
                 for name, orch in self.orchestrators.items()]
        return CampaignService(self.sim, slots)
