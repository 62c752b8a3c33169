"""Smart Dope-style quantum-dot synthesis landscape (§3.3, ref [23]).

The paper's motivating example navigates ~10^13 possible synthesis
conditions for metal-halide-doped quantum dots.  This landscape reproduces
the *shape* of that problem: a nested discrete-continuous space (dopant ×
ligand × solvent × halide source discretes, four continuous process
knobs) whose condition count at experimental resolution exceeds 10^13,
with properties (photoluminescence quantum yield, emission wavelength,
stability) that reward a narrow region of one particular chemistry.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.labsci.landscapes import (ContinuousDim, DiscreteDim,
                                     ParameterSpace, SyntheticLandscape)

DOPANTS = ("Ag", "Cu", "Mn", "Zn", "In", "Ga", "Al", "Sn")
LIGANDS = ("oleylamine", "oleic-acid", "TOP", "DDT", "octylamine",
           "hexanethiol", "MPA", "PEG-thiol")
SOLVENTS = ("toluene", "octadecene", "DMF", "DMSO")
HALIDE_SOURCES = ("PbBr2", "PbI2", "PbCl2", "ZnBr2", "ZnI2")


def quantum_dot_space() -> ParameterSpace:
    """The Smart Dope-like synthesis condition space.

    At a resolution of 100 steps per continuous knob the space has
    8 * 8 * 4 * 5 * 100^4 = 1.28e11 conditions; at the 316-step resolution
    a fluidic SDL can actually address, 1.28e13 — the "10^13" in the
    paper.
    """
    return ParameterSpace([
        DiscreteDim("dopant", DOPANTS),
        DiscreteDim("ligand", LIGANDS),
        DiscreteDim("solvent", SOLVENTS),
        DiscreteDim("halide_source", HALIDE_SOURCES),
        ContinuousDim("temperature", 60.0, 220.0, unit="C"),
        ContinuousDim("dopant_conc", 0.001, 0.5, unit="mol/L"),
        ContinuousDim("residence_time", 5.0, 600.0, unit="s"),
        ContinuousDim("flow_ratio", 0.05, 0.95, unit=""),
    ])


class QuantumDotLandscape(SyntheticLandscape):
    """PLQY / emission wavelength / stability of doped quantum dots.

    ``plqy`` (the objective) is a multi-peak synthetic surface in [0, 1].
    ``emission_nm`` shifts with dopant concentration and temperature around
    a per-dopant base wavelength; ``stability`` correlates with PLQY but
    penalizes extreme temperatures.
    """

    properties = ("plqy", "emission_nm", "stability")
    objective = "plqy"
    name = "qd"

    #: Base emission wavelength per dopant (nm).
    _BASE_NM = {d: 480.0 + 22.0 * i for i, d in enumerate(DOPANTS)}

    def __init__(self, seed: int = 0) -> None:
        super().__init__(quantum_dot_space(), seed=seed, n_peaks=4,
                         output_range=(0.0, 1.0))

    def evaluate(self, params: Mapping[str, Any]) -> dict[str, float]:
        base = super().evaluate(params)
        plqy = min(base["response"], 1.0)
        t = float(params["temperature"])
        conc = float(params["dopant_conc"])
        emission = (self._BASE_NM[str(params["dopant"])]
                    + 60.0 * np.tanh(3.0 * conc)
                    + 0.08 * (t - 140.0))
        # Stability favours moderate temperature and good crystallinity
        # (proxied by PLQY).
        t_penalty = ((t - 140.0) / 160.0) ** 2
        stability = max(0.0, min(1.0, 0.6 * plqy + 0.4 * (1.0 - t_penalty)))
        return {"plqy": plqy, "emission_nm": float(emission),
                "stability": stability}

    def n_conditions_at_sdl_resolution(self) -> float:
        """Condition count at fluidic-SDL addressing resolution (~10^13)."""
        return self.space.n_conditions(continuous_resolution=316)
