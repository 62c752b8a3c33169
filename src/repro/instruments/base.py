"""The common instrument model.

Every instrument shares: a single-occupancy duty cycle (a queue forms when
several agents want it), an operating-hours counter, a stochastic
per-operation fault model with repair times, and a capability descriptor
published to the service registry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.instruments.errors import InstrumentFault, OutOfSpec
from repro.sim.ids import next_label
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry


class InstrumentStatus(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"
    FAULT = "fault"
    OFFLINE = "offline"


@dataclass
class OperationRequest:
    """A canonical instrument request (what the HAL speaks).

    Attributes
    ----------
    operation:
        Canonical operation name (``"synthesize"``, ``"measure"``, ...).
    params:
        Canonical parameters in canonical units (temperatures in C,
        times in s, volumes in mL).
    sample:
        The physical sample operated on, when applicable.
    requester:
        Agent identity, recorded into provenance.
    """

    operation: str
    params: dict[str, Any] = field(default_factory=dict)
    sample: Any = None
    requester: str = ""


@dataclass
class Measurement:
    """A single measurement result.

    ``values`` holds calibrated, noise-bearing scalar observations;
    ``raw`` carries the vendor-format payload (arrays, nested dicts) that
    the data-management layer must parse — deliberately heterogeneous
    across instruments to exercise metadata extraction (E8).
    """

    instrument: str
    kind: str
    values: dict[str, float]
    raw: Any = None
    units: dict[str, str] = field(default_factory=dict)
    sample_id: str = ""
    site: str = ""
    time: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)
    measurement_id: str = ""

    def __post_init__(self) -> None:
        if not self.measurement_id:
            # World-scoped allocation: instruments stamp ids explicitly
            # from ``sim.ids``; this ambient fallback covers bare
            # construction outside any instrument (tests, fixtures).
            self.measurement_id = next_label("measurement", "meas")


class Instrument:
    """Base class for all simulated instruments.

    Parameters
    ----------
    sim:
        Kernel.
    name / site:
        Identity and physical location.
    rngs:
        RNG registry; each instrument draws noise/fault streams keyed by
        its name.
    mtbf_hours:
        Mean operating hours between faults; ``inf`` disables faults.
    repair_time_s:
        Time to repair after a fault.
    """

    #: Subclasses set: instrument kind for registry/capability purposes.
    kind: str = "instrument"
    #: Canonical operations this instrument supports.
    operations: tuple[str, ...] = ()

    def __init__(self, sim: "Simulator", name: str, site: str,
                 rngs: "RngRegistry", *, mtbf_hours: float = float("inf"),
                 repair_time_s: float = 3600.0) -> None:
        self.sim = sim
        self.name = name
        self.site = site
        self.rng = rngs.stream(f"instrument/{name}")
        self.mtbf_hours = mtbf_hours
        self.repair_time_s = repair_time_s
        self.status = InstrumentStatus.IDLE
        self.duty = Resource(sim, capacity=1)
        self.operating_hours = 0.0
        self.stats = {"operations": 0, "faults": 0, "repairs": 0,
                      "busy_time": 0.0, "rejected": 0}

    def next_measurement_id(self) -> str:
        """Mint a world-scoped measurement id (same-seed worlds agree)."""
        return self.sim.ids.label("measurement", "meas")

    # -- capability surface ----------------------------------------------------

    def capability_descriptor(self) -> dict[str, Any]:
        """What the instrument advertises to the service registry."""
        return {
            "kind": self.kind,
            "operations": list(self.operations),
            "site": self.site,
            "envelope": self.operating_envelope(),
        }

    def operating_envelope(self) -> dict[str, tuple[float, float]]:
        """Hard parameter limits enforced by hardware interlocks.

        Subclasses override; the envelope is intentionally *wider* than
        the scientifically sensible region (interlocks protect hardware,
        not science).
        """
        return {}

    def check_envelope(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`OutOfSpec` for interlock violations."""
        for key, (lo, hi) in self.operating_envelope().items():
            if key in params:
                v = params[key]
                if isinstance(v, (int, float)) and not lo <= float(v) <= hi:
                    self.stats["rejected"] += 1
                    raise OutOfSpec(
                        f"{self.name}: {key}={v} outside interlock "
                        f"range [{lo}, {hi}]")

    # -- the operation harness --------------------------------------------------------

    def _maybe_fault(self, duration_s: float) -> bool:
        """Draw a fault for an operation of the given duration."""
        if not np.isfinite(self.mtbf_hours):
            return False
        p_fault = min(1.0, (duration_s / 3600.0) / self.mtbf_hours)
        return bool(self.rng.random() < p_fault)

    def operate(self, request: OperationRequest, duration_s: float):
        """Generator: the common envelope of every instrument operation.

        Acquires the duty cycle, checks interlocks, spends ``duration_s``
        of simulated time, accumulates operating hours, and rolls the
        fault dice.  Subclasses wrap this and add their physics.

        Raises
        ------
        InstrumentFault
            If the instrument is (or becomes) faulted.
        OutOfSpec
            For interlock violations (checked *before* time is spent).
        """
        if self.status in (InstrumentStatus.FAULT, InstrumentStatus.OFFLINE):
            raise InstrumentFault(f"{self.name} is {self.status.value}")
        self.check_envelope(request.params)
        req = self.duty.request()
        yield req
        try:
            if self.status in (InstrumentStatus.FAULT,
                               InstrumentStatus.OFFLINE):
                raise InstrumentFault(f"{self.name} is {self.status.value}")
            self.status = InstrumentStatus.BUSY
            start = self.sim.now
            yield self.sim.timeout(duration_s)
            self.stats["operations"] += 1
            self.stats["busy_time"] += self.sim.now - start
            self.operating_hours += duration_s / 3600.0
            if request.sample is not None:
                request.sample.record(self.sim.now, self.name,
                                      request.operation)
            if self._maybe_fault(duration_s):
                self._enter_fault()
                raise InstrumentFault(
                    f"{self.name} faulted during {request.operation}")
            self.status = InstrumentStatus.IDLE
        finally:
            if self.status is InstrumentStatus.BUSY:
                self.status = InstrumentStatus.IDLE
            req.release()

    def _enter_fault(self) -> None:
        self.status = InstrumentStatus.FAULT
        self.stats["faults"] += 1

    def inject_fault(self) -> None:
        """External fault injection (E11)."""
        self._enter_fault()

    def repair(self):
        """Generator: bring a faulted instrument back online."""
        if self.status is not InstrumentStatus.FAULT:
            return
        yield self.sim.timeout(self.repair_time_s)
        self.stats["repairs"] += 1
        self.status = InstrumentStatus.IDLE

    # -- measurement noise ------------------------------------------------------------

    def add_noise(self, true_value: float, noise_scale: float) -> float:
        """Observed value = truth + white noise."""
        return float(true_value + self.rng.normal(0.0, noise_scale))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self.name!r}@{self.site} "
                f"{self.status.value}>")
