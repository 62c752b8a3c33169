"""X-ray diffractometer.

Produces powder diffraction patterns whose peak sharpness encodes sample
crystallinity (proxied by the landscape's objective property).  Used by
materials campaigns for structure confirmation and by the data-fabric
experiments as a second heterogeneous raw format.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.instruments.base import Instrument, Measurement, OperationRequest
from repro.labsci.sample import Sample


class XRayDiffractometer(Instrument):
    """Powder XRD with configurable two-theta range."""

    kind = "xrd"
    operations = ("measure",)
    #: Scan range in degrees two-theta.
    TWO_THETA_RANGE = (10.0, 80.0)
    #: Measurement noise on crystallinity.
    CRYSTALLINITY_NOISE = 0.02

    def __init__(self, sim, name, site, rngs, *,
                 scan_time_s: float = 900.0, n_points: int = 2800,
                 **kw: Any) -> None:
        super().__init__(sim, name, site, rngs, **kw)
        self.scan_time_s = scan_time_s
        self.n_points = n_points

    def operating_envelope(self) -> dict[str, tuple[float, float]]:
        return {"tube_voltage_kV": (10.0, 60.0)}

    def _pattern(self, crystallinity: float,
                 seed_key: str) -> np.ndarray:
        lo, hi = self.TWO_THETA_RANGE
        tt = np.linspace(lo, hi, self.n_points)
        # Peak positions derived deterministically from the sample's
        # discrete chemistry so "the same phase" always diffracts alike.
        # (blake2, not hash(): the built-in is salted per process.)
        h = int.from_bytes(
            hashlib.blake2b(seed_key.encode(), digest_size=4).digest(),
            "little")
        local = np.random.default_rng(h)
        n_peaks = 6 + int(local.integers(0, 5))
        centers = local.uniform(lo + 2, hi - 2, size=n_peaks)
        heights = local.uniform(0.2, 1.0, size=n_peaks) * max(crystallinity,
                                                              0.02)
        width = 0.12 + 0.8 * (1.0 - crystallinity)  # amorphous = broad
        pattern = np.zeros_like(tt)
        for c, a in zip(centers, heights):
            pattern += a * np.exp(-((tt - c) / width) ** 2)
        pattern += 0.05 + self.rng.normal(0.0, 0.01, size=tt.shape)
        return np.vstack([tt, pattern])

    def measure(self, sample: Sample, requester: str = ""):
        """Generator: acquire a diffraction pattern."""
        request = OperationRequest(operation="measure", sample=sample,
                                   requester=requester)
        yield from self.operate(request, self.scan_time_s)
        truth = sample.true_properties()
        # Crystallinity proxy: the landscape objective (first property).
        objective = next(iter(truth.values()))
        crystallinity = float(np.clip(objective, 0.0, 1.0))
        observed = float(np.clip(self.add_noise(
            crystallinity, self.CRYSTALLINITY_NOISE), 0.0, 1.0))
        chem_key = "|".join(str(v) for k, v in sorted(sample.params.items())
                            if isinstance(v, str))
        pattern = self._pattern(observed, chem_key)
        return Measurement(
            measurement_id=self.next_measurement_id(),
            instrument=self.name, kind="xrd-pattern",
            values={"crystallinity": observed},
            raw={"two_theta": pattern[0], "counts": pattern[1],
                 "meta": {"radiation": "CuKa", "scan_s": self.scan_time_s}},
            units={"crystallinity": "fraction"},
            sample_id=sample.sample_id, site=self.site, time=self.sim.now,
            metadata={"technique": "powder-xrd", "operator": requester
                      or "autonomous"})
