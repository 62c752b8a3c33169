"""Photoluminescence spectrometer.

Measures optical properties (PLQY, emission wavelength) of quantum-dot
and perovskite samples.  The raw payload is a full synthetic spectrum —
a numpy array the data layer must interpret — while ``values`` carries the
fitted scalars with instrument noise and calibration drift.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.instruments.base import Instrument, Measurement, OperationRequest
from repro.labsci.sample import Sample


class PLSpectrometer(Instrument):
    """Fluorescence spectrometer with drift-prone wavelength axis."""

    kind = "spectrometer"
    operations = ("measure",)

    def __init__(self, sim, name, site, rngs, *,
                 scan_time_s: float = 45.0, plqy_noise: float = 0.015,
                 wavelength_noise_nm: float = 0.8,
                 wavelength_range: tuple[float, float] = (350.0, 900.0),
                 n_channels: int = 1024, **kw: Any) -> None:
        super().__init__(sim, name, site, rngs, **kw)
        self.scan_time_s = scan_time_s
        self.plqy_noise = plqy_noise
        self.wavelength_noise_nm = wavelength_noise_nm
        self.wavelength_range = wavelength_range
        self.n_channels = n_channels
        # The wavelength axis and its baseline are the same on every scan,
        # so they are built once per instrument.
        lo, hi = wavelength_range
        self._wavelengths = np.linspace(lo, hi, n_channels)
        self._baseline = 0.02 + 0.005 * np.sin(self._wavelengths / 120.0)

    def operating_envelope(self) -> dict[str, tuple[float, float]]:
        return {"integration_time": (0.001, 600.0)}

    def _synthesize_spectrum(self, center_nm: float,
                             intensity: float) -> np.ndarray:
        """Gaussian emission peak + baseline + shot noise."""
        wl = self._wavelengths
        width = 18.0 + 6.0 * self.rng.random()
        signal = intensity * np.exp(-((wl - center_nm) / width) ** 2)
        noise = self.rng.normal(0.0, 0.004, size=wl.shape)
        return np.vstack([wl, signal + self._baseline + noise])

    def measure(self, sample: Sample, requester: str = ""):
        """Generator: acquire a PL spectrum; returns a :class:`Measurement`."""
        request = OperationRequest(operation="measure", sample=sample,
                                   requester=requester)
        yield from self.operate(request, self.scan_time_s)
        true_plqy = sample.true_property("plqy")
        true_nm = sample.true_property("emission_nm")
        obs_plqy = float(np.clip(
            self.apply_calibration_bias(true_plqy, self.plqy_noise), 0.0, 1.0))
        obs_nm = float(true_nm + self.rng.normal(0.0, self.wavelength_noise_nm))
        spectrum = self._synthesize_spectrum(obs_nm, max(obs_plqy, 1e-3))
        return Measurement(
            measurement_id=self.next_measurement_id(),
            instrument=self.name, kind="pl-spectrum",
            values={"plqy": obs_plqy, "emission_nm": obs_nm},
            raw={"spectrum": spectrum,
                 "acq": {"channels": self.n_channels,
                         "integration_s": self.scan_time_s}},
            units={"plqy": "fraction", "emission_nm": "nm"},
            sample_id=sample.sample_id, site=self.site, time=self.sim.now,
            metadata={"operator": requester or "autonomous",
                      "technique": "photoluminescence"})
