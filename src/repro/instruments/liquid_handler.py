"""Automated liquid handler for reagent preparation.

Prepares stock solutions and mixtures ahead of synthesis.  Its job in the
ecosystem is mostly logistical: it gates synthesis steps (no prepared
reagents, no reaction) and contributes a third raw-data dialect (plate
maps) for the metadata extraction experiment.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.instruments.base import Instrument, Measurement, OperationRequest


class LiquidHandler(Instrument):
    """Pipetting robot with a 96-slot deck."""

    kind = "liquid-handler"
    operations = ("prepare",)
    #: Relative pipetting error of each dispensed volume.
    VOLUME_ERROR_FRACTION = 0.01
    #: Mixtures the deck holds before the oldest is discarded.
    deck_slots = 96

    def __init__(self, sim, name, site, rngs, *,
                 time_per_transfer_s: float = 8.0, **kw: Any) -> None:
        super().__init__(sim, name, site, rngs, **kw)
        self.time_per_transfer_s = time_per_transfer_s
        self.prepared: dict[str, dict[str, float]] = {}

    def operating_envelope(self) -> dict[str, tuple[float, float]]:
        return {"volume_uL": (0.5, 5000.0)}

    def prepare(self, mixture_id: str, recipe: Mapping[str, float],
                requester: str = ""):
        """Generator: pipette a mixture; returns a plate-map Measurement.

        ``recipe`` maps reagent name -> volume (uL).  Actual dispensed
        volumes carry pipetting error, recorded in the plate map.
        """
        if len(self.prepared) >= self.deck_slots:
            # Oldest mixture is consumed/discarded to free a slot.
            self.prepared.pop(next(iter(self.prepared)))
        request = OperationRequest(
            operation="prepare",
            params={"volume_uL": max(recipe.values()) if recipe else 1.0},
            requester=requester)
        duration = self.time_per_transfer_s * max(len(recipe), 1)
        yield from self.operate(request, duration)
        actual = {
            reagent: float(vol * (1.0 + self.rng.normal(
                0.0, self.VOLUME_ERROR_FRACTION)))
            for reagent, vol in recipe.items()}
        self.prepared[mixture_id] = actual
        return Measurement(
            measurement_id=self.next_measurement_id(),
            instrument=self.name, kind="plate-map",
            values={"n_transfers": float(len(recipe)),
                    "total_volume_uL": float(sum(actual.values()))},
            raw={"plate": {mixture_id: actual},
                 "deck_state": {"occupied": len(self.prepared),
                                "capacity": self.deck_slots}},
            units={"total_volume_uL": "uL"},
            site=self.site, time=self.sim.now,
            metadata={"technique": "liquid-handling",
                      "operator": requester or "autonomous"})

    def has_mixture(self, mixture_id: str) -> bool:
        return mixture_id in self.prepared
