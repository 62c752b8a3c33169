"""The executor agent: turns plans into instrument operations.

The executor is the only agent that touches hardware.  It routes
canonical requests through the HAL, measures the product with the
assigned characterization instrument, and reports a structured
:class:`ExperimentOutcome`.  Crucially it is *honest about garbage*: a
plan whose parameters the hardware rejects (or that produces nothing
measurable) still consumed time and reagents and comes back as an invalid
outcome — exactly how a hallucinated recipe manifests in a real lab.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.agents.base import Agent
from repro.agents.planner import ExperimentPlan
from repro.instruments.base import Measurement, OperationRequest
from repro.instruments.errors import InstrumentFault, OutOfSpec
from repro.instruments.hal import HardwareAbstractionLayer


@dataclass
class ExperimentOutcome:
    """What one executed plan produced."""

    plan: ExperimentPlan
    valid: bool
    objective: Optional[float] = None
    measurement: Optional[Measurement] = None
    sample: Any = None
    failure: str = ""
    started: float = 0.0
    finished: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished - self.started


class ExecutorAgent(Agent):
    """Executes plans: synthesize via HAL, then characterize.

    Parameters
    ----------
    hal:
        The hardware abstraction layer holding this site's instruments.
    synthesis_instrument:
        HAL name of the synthesis endpoint.
    characterization:
        Instrument object with a ``measure(sample)`` generator (routed
        directly: characterization of a fresh sample happens at the same
        bench).
    objective_key:
        Which measured value is the campaign objective.
    """

    def __init__(self, sim, name: str, site: str,
                 hal: HardwareAbstractionLayer, synthesis_instrument: str,
                 characterization, objective_key: str) -> None:
        super().__init__(sim, name, site)
        self.hal = hal
        self.synthesis_instrument = synthesis_instrument
        self.characterization = characterization
        self.objective_key = objective_key
        self.exec_stats = {"executed": 0, "invalid": 0, "faults": 0}

    def execute(self, plan: ExperimentPlan):
        """Generator: run one plan end-to-end; returns an outcome.

        Instrument faults propagate as :class:`InstrumentFault` (the
        fault-tolerant coordinator decides what to do); *bad recipes* do
        not raise — they return ``valid=False`` outcomes.
        """
        started = self.sim.now
        self.exec_stats["executed"] += 1
        request = OperationRequest(operation=plan.instrument_op,
                                   params=dict(plan.params),
                                   requester=self.name)
        try:
            sample = yield from self.hal.execute(self.synthesis_instrument,
                                                 request)
        except OutOfSpec as exc:
            # Hardware interlock refused: no sample, small time already
            # spent; the "experiment" is invalid.
            self.exec_stats["invalid"] += 1
            return ExperimentOutcome(plan=plan, valid=False,
                                     failure=f"interlock: {exc}",
                                     started=started, finished=self.sim.now)
        except ValueError as exc:
            # Parameters outside the physical space (e.g. a confabulated
            # chemistry): the robot runs through the motions and produces
            # unusable residue.
            self.exec_stats["invalid"] += 1
            yield self.sim.timeout(60.0)  # wasted bench time
            return ExperimentOutcome(plan=plan, valid=False,
                                     failure=f"unphysical recipe: {exc}",
                                     started=started, finished=self.sim.now)
        except InstrumentFault:
            self.exec_stats["faults"] += 1
            raise

        measurement = yield from self.characterization.measure(
            sample, requester=self.name)
        objective = measurement.values.get(self.objective_key)
        if objective is None:
            self.exec_stats["invalid"] += 1
            return ExperimentOutcome(plan=plan, valid=False,
                                     measurement=measurement, sample=sample,
                                     failure=f"objective key "
                                             f"{self.objective_key!r} not "
                                             f"measured",
                                     started=started, finished=self.sim.now)
        return ExperimentOutcome(plan=plan, valid=True,
                                 objective=float(objective),
                                 measurement=measurement, sample=sample,
                                 started=started, finished=self.sim.now)
