"""Electron microscope.

Acquires (small) synthetic micrographs whose texture statistics encode
film uniformity / particle dispersity.  The heaviest data producer in the
ensemble — each image is a real numpy array — which makes it the stressor
for the streaming/quality layer (E9).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.instruments.base import Instrument, Measurement, OperationRequest
from repro.labsci.sample import Sample


class ElectronMicroscope(Instrument):
    """SEM/TEM-style imaging instrument."""

    kind = "electron-microscope"
    operations = ("measure", "image")
    #: Measurement noise on uniformity.
    UNIFORMITY_NOISE = 0.03

    def __init__(self, sim, name, site, rngs, *,
                 image_time_s: float = 300.0, image_px: int = 128,
                 **kw: Any) -> None:
        super().__init__(sim, name, site, rngs, **kw)
        self.image_time_s = image_time_s
        self.image_px = image_px

    def operating_envelope(self) -> dict[str, tuple[float, float]]:
        return {"beam_kV": (0.5, 300.0), "magnification": (100.0, 2e6)}

    def _micrograph(self, uniformity: float) -> np.ndarray:
        """Blob texture: less uniform samples have blobbier images."""
        n = self.image_px
        img = self.rng.normal(0.5, 0.05, size=(n, n))
        n_blobs = int(round(40 * (1.0 - uniformity))) + 2
        xs = self.rng.integers(0, n, size=n_blobs)
        ys = self.rng.integers(0, n, size=n_blobs)
        radii = self.rng.uniform(2, 8, size=n_blobs)
        yy, xx = np.mgrid[0:n, 0:n]
        for x, y, r in zip(xs, ys, radii):
            img += 0.4 * np.exp(-(((xx - x) ** 2 + (yy - y) ** 2)
                                  / (2 * r ** 2)))
        return np.clip(img, 0.0, 2.0)

    def measure(self, sample: Sample, requester: str = ""):
        """Generator: acquire a micrograph; returns a :class:`Measurement`.

        If the sample's landscape does not define ``uniformity``, a proxy
        is derived from its objective property (well-optimized samples
        image more uniformly).
        """
        request = OperationRequest(operation="measure", sample=sample,
                                   requester=requester)
        yield from self.operate(request, self.image_time_s)
        truth = sample.true_properties()
        if "uniformity" in truth:
            uniformity = truth["uniformity"]
        else:
            uniformity = float(np.clip(next(iter(truth.values())), 0.0, 1.0))
        observed = float(np.clip(self.add_noise(
            uniformity, self.UNIFORMITY_NOISE), 0.0, 1.0))
        img = self._micrograph(observed)
        grain_density = float((1.0 - observed) * 40 + 2)
        return Measurement(
            measurement_id=self.next_measurement_id(),
            instrument=self.name, kind="micrograph",
            values={"uniformity": observed, "grain_density": grain_density},
            raw={"image": img,
                 "acquisition": {"px": self.image_px, "beam_kV": 200.0,
                                 "dwell_us": 4.0}},
            units={"uniformity": "fraction", "grain_density": "1/um^2"},
            sample_id=sample.sample_id, site=self.site, time=self.sim.now,
            metadata={"technique": "electron-microscopy",
                      "operator": requester or "autonomous"})
