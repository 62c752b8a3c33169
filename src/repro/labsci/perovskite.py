"""Lead-free perovskite nanocrystal synthesis landscape (§3.1, ref [24]).

Models the data-driven synthesis problem of Sadeghi et al.'s self-driving
fluidic lab: tune composition and process conditions of a lead-free
(tin/bismuth) halide perovskite to hit a target emission wavelength with
maximal quantum yield.  The campaign objective used by E3/E10 is a
*quality score* combining PLQY with distance from the target wavelength.

Site-specific calibration offsets model the paper's observation that
"equipment calibration differences introduce systematic variations"
(§3.2): the same recipe yields slightly different results at different
facilities, which is exactly what cross-facility knowledge integration
must cope with.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.labsci.landscapes import (ContinuousDim, DiscreteDim,
                                     ParameterSpace, SyntheticLandscape)
from repro.sim.rng import RngRegistry

B_CATIONS = ("Sn", "Bi", "Sb", "Ge")
A_CATIONS = ("Cs", "FA", "MA")


def perovskite_space() -> ParameterSpace:
    return ParameterSpace([
        DiscreteDim("b_cation", B_CATIONS),
        DiscreteDim("a_cation", A_CATIONS),
        ContinuousDim("halide_ratio", 0.0, 1.0),   # Br/(Br+I)
        ContinuousDim("temperature", 40.0, 180.0, unit="C"),
        ContinuousDim("residence_time", 10.0, 300.0, unit="s"),
        ContinuousDim("ligand_ratio", 0.1, 4.0),
    ])


class PerovskiteLandscape(SyntheticLandscape):
    """PLQY + emission wavelength of lead-free perovskite nanocrystals."""

    properties = ("plqy", "emission_nm", "quality")
    objective = "quality"

    def __init__(self, seed: int = 0, target_nm: float = 520.0,
                 site: str = "", calibration_scale: float = 0.0) -> None:
        super().__init__(perovskite_space(), seed=seed, name="perovskite",
                         n_peaks=3, output_range=(0.0, 0.95))
        self.target_nm = target_nm
        self.site = site
        # Per-site systematic offsets: small shifts in effective
        # temperature and halide incorporation.
        if site and calibration_scale > 0:
            rng = RngRegistry(seed).fresh(f"perovskite/site-cal/{site}")
            self._temp_offset = float(rng.normal(0.0, 4.0 * calibration_scale))
            self._halide_offset = float(
                rng.normal(0.0, 0.02 * calibration_scale))
        else:
            self._temp_offset = 0.0
            self._halide_offset = 0.0

    def _effective_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        eff = dict(params)
        t_dim = self.space.dim("temperature")
        h_dim = self.space.dim("halide_ratio")
        eff["temperature"] = t_dim.clip(
            float(params["temperature"]) + self._temp_offset)
        eff["halide_ratio"] = h_dim.clip(
            float(params["halide_ratio"]) + self._halide_offset)
        return eff

    def evaluate(self, params: Mapping[str, Any]) -> dict[str, float]:
        self.space.validate(params)
        eff = self._effective_params(params)
        base = super().evaluate(eff)
        plqy = min(base["response"], 1.0)
        # Emission tracks halide ratio (Br-rich = blue, I-rich = red) and
        # B-site cation.
        emission = (690.0 - 210.0 * float(eff["halide_ratio"])
                    + self._CATION_SHIFT[str(eff["b_cation"])])
        # Quality: PLQY discounted by distance from the target wavelength
        # (30 nm tolerance scale).
        wavelength_match = float(np.exp(-((emission - self.target_nm)
                                          / 30.0) ** 2))
        quality = plqy * (0.25 + 0.75 * wavelength_match)
        return {"plqy": plqy, "emission_nm": float(emission),
                "quality": float(quality)}

    _CATION_SHIFT = {"Sn": 0.0, "Bi": 35.0, "Sb": 18.0, "Ge": -12.0}
