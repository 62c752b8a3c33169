"""Simulated scientific instruments and cyberinfrastructure (§3.1).

Every instrument is a discrete-event model with realistic duty cycles,
noise and failure modes, fronted by vendor-specific
protocol dialects (:mod:`repro.instruments.vendors`) and unified by the
hardware abstraction layer of milestone M1 (:mod:`repro.instruments.hal`).
Physics-aware digital twins (:mod:`repro.instruments.twin`) validate
workflows before they touch "hardware" (M3).

Concrete instruments:

- :class:`~repro.instruments.synthesis.BatchSynthesisRobot` — classical
  batch synthesis (slow, reagent-hungry).
- :class:`~repro.instruments.flow_reactor.FluidicReactor` — fluidic SDL
  (fast, droplet-scale; the >100x efficiency claim of E7).
- :class:`~repro.instruments.spectrometer.PLSpectrometer` — optical
  characterization.
- :class:`~repro.instruments.xrd.XRayDiffractometer` — structure.
- :class:`~repro.instruments.microscope.ElectronMicroscope` — imaging.
- :class:`~repro.instruments.liquid_handler.LiquidHandler` — sample prep.
- :class:`~repro.instruments.hpc.HpcCluster` — computation as a resource.
"""

from repro.instruments.base import (Instrument, InstrumentStatus, Measurement,
                                    OperationRequest)
from repro.instruments.errors import (InstrumentError, InstrumentFault,
                                      OutOfSpec, VendorError)
from repro.instruments.flow_reactor import FluidicReactor
from repro.instruments.hal import HalAdapter, HardwareAbstractionLayer
from repro.instruments.hpc import HpcCluster, JobResult
from repro.instruments.liquid_handler import LiquidHandler
from repro.instruments.microscope import ElectronMicroscope
from repro.instruments.spectrometer import PLSpectrometer
from repro.instruments.synthesis import BatchSynthesisRobot
from repro.instruments.twin import DigitalTwin
from repro.instruments.vendors import (VENDOR_DIALECTS, VendorProtocol,
                                       make_vendor_protocol)
from repro.instruments.xrd import XRayDiffractometer

__all__ = [
    "BatchSynthesisRobot",
    "DigitalTwin",
    "ElectronMicroscope",
    "FluidicReactor",
    "HalAdapter",
    "HardwareAbstractionLayer",
    "HpcCluster",
    "Instrument",
    "InstrumentError",
    "InstrumentFault",
    "InstrumentStatus",
    "JobResult",
    "LiquidHandler",
    "Measurement",
    "OperationRequest",
    "OutOfSpec",
    "PLSpectrometer",
    "VENDOR_DIALECTS",
    "VendorError",
    "VendorProtocol",
    "XRayDiffractometer",
    "make_vendor_protocol",
]
