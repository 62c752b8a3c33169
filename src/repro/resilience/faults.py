"""Chaos engineering facade: one scenario API for every failure mode.

Failure injection used to be scattered — network faults through
:class:`~repro.net.faults.FaultInjector`, instrument faults through
``Instrument.inject_fault``, agent crashes through ``Agent.crash`` — and
each experiment hand-rolled a "gremlin" process to sequence them.  The
:class:`ChaosController` unifies all three behind declarative, sim-time
scheduling (``at_s=`` absolute simulated seconds), plus deterministic
Poisson fault *storms* drawn from named RNG streams, so chaos scenarios
(E11 and beyond) are configuration, not bespoke processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.faults import FaultInjector
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry


class ChaosController:
    """Schedules network, instrument, and agent failures declaratively.

    Parameters
    ----------
    sim:
        Kernel; all scheduling happens on its clock.
    network_faults:
        The federation's :class:`~repro.net.faults.FaultInjector`; link,
        site, and partition chaos delegates to it.  Optional — a
        controller without one can still injure instruments and agents.
    rngs:
        Optional :class:`~repro.sim.rng.RngRegistry` for stochastic
        scenarios (fault storms); every draw comes from a named stream so
        storms are reproducible and independent of other components.
    metrics:
        Optional shared registry for the ``chaos.*`` counters.
    """

    def __init__(self, sim: "Simulator",
                 network_faults: Optional["FaultInjector"] = None, *,
                 rngs: Optional["RngRegistry"] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.network_faults = network_faults
        self.rngs = rngs
        self.metrics = metrics or MetricsRegistry()
        self.stats = self.metrics.stats(
            "chaos",
            {"scheduled": 0, "link_faults": 0, "site_faults": 0,
             "partitions": 0, "degradations": 0, "instrument_faults": 0,
             "agent_crashes": 0})
        self.log: list[tuple[float, str, str]] = []

    # -- scheduling core ---------------------------------------------------

    def _at(self, at_s: float, kind: str, detail: str, fn) -> None:
        """Run ``fn`` at absolute sim time ``at_s`` (now if already past)."""
        self.stats["scheduled"] += 1

        def fire() -> None:
            self.stats[kind] += 1
            self.log.append((self.sim.now, kind, detail))
            fn()

        self.sim.schedule_callback(max(0.0, at_s - self.sim.now), fire)

    def _net(self) -> "FaultInjector":
        if self.network_faults is None:
            raise ValueError("this ChaosController has no network "
                             "FaultInjector wired in")
        return self.network_faults

    # -- network chaos -----------------------------------------------------

    def cut_link(self, a: str, b: str, *, at_s: float = 0.0,
                 duration_s: Optional[float] = None) -> None:
        """Take the a--b link down (auto-healing after ``duration_s``)."""
        net = self._net()
        self._at(at_s, "link_faults", f"{a}--{b}",
                 lambda: net.fail_link(a, b, duration=duration_s))

    def fail_site(self, site: str, *, at_s: float = 0.0,
                  duration_s: Optional[float] = None) -> None:
        """Take an entire site offline."""
        net = self._net()
        self._at(at_s, "site_faults", site,
                 lambda: net.fail_site(site, duration=duration_s))

    def partition(self, group_a: Iterable[str], group_b: Iterable[str], *,
                  at_s: float = 0.0,
                  duration_s: Optional[float] = None) -> None:
        """Block all traffic between two site groups."""
        net = self._net()
        ga, gb = list(group_a), list(group_b)
        self._at(at_s, "partitions", f"{sorted(ga)}|{sorted(gb)}",
                 lambda: net.partition(ga, gb, duration=duration_s))

    def degrade_link(self, a: str, b: str, *, extra_loss: float,
                     at_s: float = 0.0,
                     duration_s: Optional[float] = None) -> None:
        """Make a link flaky by adding ``extra_loss`` loss probability."""
        net = self._net()
        self._at(at_s, "degradations", f"{a}--{b}",
                 lambda: net.degrade_link(a, b, extra_loss=extra_loss,
                                          duration=duration_s))

    # -- instrument chaos --------------------------------------------------

    def fault_instrument(self, instrument: Any, *, at_s: float = 0.0) -> None:
        """Fault one instrument (skipped if already faulted/offline)."""
        self._at(at_s, "instrument_faults", instrument.name,
                 lambda: self._inject_instrument_fault(instrument))

    @staticmethod
    def _inject_instrument_fault(instrument: Any) -> None:
        status = getattr(instrument, "status", None)
        if status is not None and getattr(status, "value", "") in (
                "fault", "offline"):
            return
        instrument.inject_fault()

    def instrument_fault_storm(self, instruments: Iterable[Any], *,
                               rate_per_hour: float, until_s: float) -> int:
        """Schedule Poisson-process faults across a fleet; returns count.

        Inter-fault gaps are exponential draws from a *per-instrument*
        named stream (``chaos/instruments/{name}``), so the storm is a
        pure function of the root seed and adding an instrument never
        perturbs the schedule of the others.
        """
        if rate_per_hour < 0:
            raise ValueError("rate_per_hour must be >= 0")
        if rate_per_hour == 0:
            return 0
        if self.rngs is None:
            raise ValueError("fault storms need an RngRegistry (rngs=)")
        mean_gap_s = 3600.0 / rate_per_hour
        scheduled = 0
        for inst in instruments:
            rng = self.rngs.stream(f"chaos/instruments/{inst.name}")
            t = self.sim.now
            while True:
                t += float(rng.exponential(mean_gap_s))
                if t >= until_s:
                    break
                self.fault_instrument(inst, at_s=t)
                scheduled += 1
        return scheduled

    # -- agent chaos -------------------------------------------------------

    def crash_agent(self, agent: Any, *, at_s: float = 0.0) -> None:
        """Crash an agent (its supervisor, if any, will notice)."""
        self._at(at_s, "agent_crashes", agent.name, agent.crash)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ChaosController scheduled={self.stats['scheduled']} "
                f"fired={len(self.log)}>")
