"""Synthetic ground-truth science.

The paper's laboratories act on the physical world; this package *is* the
physical world of the reproduction.  Each module defines a deterministic
response landscape — composition/processing parameters in, material
properties out — that simulated instruments sample (with their own noise)
and optimization campaigns explore.

Landscapes mirror two systems the paper cites: Smart Dope's
10^13-condition quantum-dot space (:mod:`repro.labsci.quantum_dots`) and
lead-free perovskite nanocrystal synthesis (:mod:`repro.labsci.perovskite`).
"""

from repro.labsci.landscapes import (ContinuousDim, DiscreteDim, Landscape,
                                     ParameterSpace, SyntheticLandscape)
from repro.labsci.perovskite import PerovskiteLandscape
from repro.labsci.quantum_dots import QuantumDotLandscape
from repro.labsci.sample import Sample

__all__ = [
    "ContinuousDim",
    "DiscreteDim",
    "Landscape",
    "ParameterSpace",
    "PerovskiteLandscape",
    "QuantumDotLandscape",
    "Sample",
    "SyntheticLandscape",
]
