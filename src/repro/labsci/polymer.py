"""Electronic polymer film processing landscape (§1, ref [33]).

Wang et al.'s autonomous platform optimizes solution processing of
electronic polymers.  This landscape maps coating and annealing conditions
to film conductivity: a ridge in (coating speed, annealing temperature)
whose position depends on the solvent blend, plus a film-uniformity
property that characterization instruments can image.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.labsci.landscapes import (ContinuousDim, DiscreteDim, Landscape,
                                     ParameterSpace)
from repro.sim.rng import RngRegistry

SOLVENT_BLENDS = ("chloroform", "chlorobenzene", "xylene", "anisole-blend")


def polymer_space() -> ParameterSpace:
    return ParameterSpace([
        DiscreteDim("solvent_blend", SOLVENT_BLENDS),
        ContinuousDim("coating_speed", 0.5, 50.0, unit="mm/s"),
        ContinuousDim("anneal_temp", 60.0, 300.0, unit="C"),
        ContinuousDim("dopant_fraction", 0.0, 0.3),
    ])


class PolymerFilmLandscape(Landscape):
    """Conductivity and uniformity of solution-processed polymer films."""

    properties = ("conductivity", "uniformity")
    objective = "conductivity"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(polymer_space())
        rng = RngRegistry(seed).fresh("polymer/ridge")
        # Per-solvent optimal (log speed, temperature) ridge positions.
        self._opt_log_speed = {
            s: float(rng.uniform(np.log(1.0), np.log(30.0)))
            for s in SOLVENT_BLENDS}
        self._opt_temp = {s: float(rng.uniform(120.0, 260.0))
                          for s in SOLVENT_BLENDS}
        self._solvent_gain = {s: float(rng.uniform(0.5, 1.0))
                              for s in SOLVENT_BLENDS}

    def evaluate(self, params: Mapping[str, Any]) -> dict[str, float]:
        self.space.validate(params)
        blend = str(params["solvent_blend"])
        log_speed = np.log(float(params["coating_speed"]))
        temp = float(params["anneal_temp"])
        dop = float(params["dopant_fraction"])
        speed_term = np.exp(-((log_speed - self._opt_log_speed[blend])
                              / 0.8) ** 2)
        temp_term = np.exp(-((temp - self._opt_temp[blend]) / 45.0) ** 2)
        # Doping boosts conductivity up to an optimum near 0.18 then hurts.
        dope_term = np.exp(-((dop - 0.18) / 0.1) ** 2)
        gain = self._solvent_gain[blend]
        conductivity = float(
            1200.0 * gain * speed_term * temp_term * (0.3 + 0.7 * dope_term))
        # Fast coating hurts uniformity; annealing helps a little.
        uniformity = float(np.clip(
            1.0 - 0.012 * float(params["coating_speed"])
            + 0.0006 * (temp - 60.0), 0.0, 1.0))
        return {"conductivity": conductivity, "uniformity": uniformity}
