"""Tests for spectrometer, XRD, microscope, liquid handler, flow."""

import numpy as np
import pytest

from repro.instruments import (BatchSynthesisRobot, ElectronMicroscope,
                               FluidicReactor, LiquidHandler, PLSpectrometer,
                               XRayDiffractometer)
from repro.labsci import Sample
from repro.sim import RngRegistry, Simulator


def bright_params(landscape, min_plqy=0.3):
    """A recipe with decent PLQY so optical signals beat the noise floor."""
    rng = np.random.default_rng(42)
    for _ in range(5000):
        p = landscape.space.sample(rng)
        if landscape.evaluate(p)["plqy"] >= min_plqy:
            return p
    raise RuntimeError("no bright recipe found")


@pytest.fixture
def sample(qd_landscape, qd_params):
    return Sample.synthesize(qd_params, qd_landscape, site="ornl")


@pytest.fixture(scope="module")
def _bright(qd_landscape):
    return bright_params(qd_landscape)


@pytest.fixture
def bright_sample(qd_landscape, _bright):
    return Sample.synthesize(_bright, qd_landscape, site="ornl")


def run(sim, gen):
    out = {}

    def proc():
        out["r"] = yield from gen
    sim.process(proc())
    sim.run()
    return out["r"]


# -- spectrometer -----------------------------------------------------------

def test_spectrometer_measures_near_truth(sim, rngs, sample):
    spec = PLSpectrometer(sim, "spec-1", "ornl", rngs, scan_time_s=45.0)
    m = run(sim, spec.measure(sample, requester="agent-1"))
    assert sim.now == pytest.approx(45.0)
    assert m.kind == "pl-spectrum"
    assert abs(m.values["plqy"] - sample.true_property("plqy")) < 0.1
    assert abs(m.values["emission_nm"]
               - sample.true_property("emission_nm")) < 5.0
    assert m.sample_id == sample.sample_id
    assert m.metadata["operator"] == "agent-1"


def test_spectrometer_raw_spectrum_has_peak_at_emission(sim, rngs,
                                                        bright_sample):
    spec = PLSpectrometer(sim, "spec-1", "ornl", rngs)
    m = run(sim, spec.measure(bright_sample))
    wl, intensity = m.raw["spectrum"]
    peak_nm = wl[np.argmax(intensity)]
    assert abs(peak_nm - m.values["emission_nm"]) < 25.0


def test_spectrometer_noise_varies_between_scans(sim, rngs, bright_sample):
    spec = PLSpectrometer(sim, "spec-1", "ornl", rngs)
    m1 = run(sim, spec.measure(bright_sample))
    m2 = run(sim, spec.measure(bright_sample))
    assert m1.values["plqy"] != m2.values["plqy"]
    assert m1.measurement_id != m2.measurement_id


class _PerScanAxisSpectrometer(PLSpectrometer):
    """The spectrum as it was built before the axis was cached: a fresh
    ``linspace`` axis and ``sin`` baseline on every scan."""

    def _synthesize_spectrum(self, center_nm, intensity):
        lo, hi = self.WAVELENGTH_RANGE
        wl = np.linspace(lo, hi, self.N_CHANNELS)
        width = 18.0 + 6.0 * self.rng.random()
        signal = intensity * np.exp(-((wl - center_nm) / width) ** 2)
        baseline = 0.02 + 0.005 * np.sin(wl / 120.0)
        noise = self.rng.normal(0.0, 0.004, size=wl.shape)
        return np.vstack([wl, signal + baseline + noise])


@pytest.mark.parametrize("kw", [{}, {"WAVELENGTH_RANGE": (400.0, 700.5),
                                     "N_CHANNELS": 333}])
def test_spectrometer_cached_axis_matches_per_scan_axis(bright_sample, kw):
    """Two successive spectra equal, bit for bit, the per-scan expression
    on a same-seed twin, and a later scan leaves an earlier one intact."""
    got, want = [], []
    for cls, out in ((PLSpectrometer, got),
                     (_PerScanAxisSpectrometer, want)):
        sim = Simulator()
        # A subclass stands in for a spectrometer with another axis.
        spec = type(cls.__name__, (cls,), kw)(sim, "spec-1", "ornl",
                                              RngRegistry(7))
        for _ in range(2):
            m = run(sim, spec.measure(bright_sample))
            spectrum = m.raw["spectrum"]
            out.append((m.values, spectrum, spectrum.tobytes()))
    for (g_values, g_spec, g_bytes), (w_values, w_spec, w_bytes) in zip(
            got, want):
        assert g_values == w_values
        assert g_spec.shape == w_spec.shape
        assert g_bytes == w_bytes
        assert g_spec.tobytes() == g_bytes  # unchanged by the later scan
    assert got[0][2] != got[1][2]


# -- XRD --------------------------------------------------------------------------

def test_xrd_pattern_shape_and_crystallinity(sim, rngs, sample):
    xrd = XRayDiffractometer(sim, "xrd-1", "ornl", rngs, scan_time_s=900.0)
    m = run(sim, xrd.measure(sample))
    assert sim.now == pytest.approx(900.0)
    assert m.raw["two_theta"].shape == m.raw["counts"].shape
    assert 0.0 <= m.values["crystallinity"] <= 1.0


def test_xrd_same_phase_diffracts_alike(sim, rngs, qd_landscape, _bright):
    xrd = XRayDiffractometer(sim, "xrd-1", "ornl", rngs, n_points=500)
    s1 = Sample.synthesize(_bright, qd_landscape)
    s2 = Sample.synthesize(_bright, qd_landscape)
    m1 = run(sim, xrd.measure(s1))
    m2 = run(sim, xrd.measure(s2))
    # Same phase, independent scans: dominant reflection coincides.
    top1 = int(np.argmax(m1.raw["counts"]))
    top2 = int(np.argmax(m2.raw["counts"]))
    assert abs(top1 - top2) < 10


# -- microscope ----------------------------------------------------------------------

def test_microscope_image_and_uniformity(sim, rngs, sample):
    mic = ElectronMicroscope(sim, "sem-1", "ornl", rngs, image_time_s=300.0,
                             image_px=64)
    m = run(sim, mic.measure(sample))
    assert m.raw["image"].shape == (64, 64)
    assert 0.0 <= m.values["uniformity"] <= 1.0
    assert m.values["grain_density"] > 0


# -- liquid handler -----------------------------------------------------------------------

def test_liquid_handler_prepare(sim, rngs):
    lh = LiquidHandler(sim, "lh-1", "ornl", rngs, time_per_transfer_s=10.0)
    m = run(sim, lh.prepare("mix-1", {"precursor": 100.0, "ligand": 50.0}))
    assert sim.now == pytest.approx(20.0)
    assert lh.has_mixture("mix-1")
    assert m.kind == "plate-map"
    # dispensed volumes are near nominal
    plate = m.raw["plate"]["mix-1"]
    assert plate["precursor"] == pytest.approx(100.0, rel=0.1)


def test_liquid_handler_deck_eviction(sim, rngs):
    lh = LiquidHandler(sim, "lh-1", "ornl", rngs, time_per_transfer_s=1.0)
    lh.deck_slots = 2

    def proc():
        for i in range(3):
            yield from lh.prepare(f"mix-{i}", {"r": 10.0})

    sim.process(proc())
    sim.run()
    assert not lh.has_mixture("mix-0")
    assert lh.has_mixture("mix-1") and lh.has_mixture("mix-2")


# -- flow reactor (E7 precondition) ----------------------------------------------------------

def test_flow_reactor_fast_and_frugal(sim, rngs, qd_landscape, qd_params):
    flow = FluidicReactor(sim, "flow-1", "ornl", rngs, qd_landscape,
                          sample_time_s=12.0, prime_time_s=120.0,
                          reagent_per_sample_mL=0.05)

    def back_to_back():
        samples = []
        for _ in range(10):
            samples.append((yield from flow.synthesize(qd_params)))
        return samples

    samples = run(sim, back_to_back())
    assert len(samples) == 10
    # First condition pays priming; the rest are 12 s each.
    assert sim.now == pytest.approx(120.0 + 10 * 12.0)
    assert flow.reagent_used_mL == pytest.approx(0.5)


def test_flow_reactor_reprimes_on_chemistry_change(sim, rngs, qd_landscape):
    flow = FluidicReactor(sim, "flow-1", "ornl", rngs, qd_landscape,
                          sample_time_s=10.0, prime_time_s=100.0)
    rng = np.random.default_rng(0)
    p1 = qd_landscape.space.sample(rng)
    p2 = dict(p1)
    # change a discrete dimension -> chemistry swap -> re-prime
    other = next(d for d in qd_landscape.space.discrete)
    p2[other.name] = next(c for c in other.choices if c != p1[other.name])

    def proc():
        yield from flow.synthesize(p1)
        t1 = sim.now
        yield from flow.synthesize(p1)  # same chemistry: no prime
        assert sim.now - t1 == pytest.approx(10.0)
        t2 = sim.now
        yield from flow.synthesize(p2)  # new chemistry: prime again
        assert sim.now - t2 == pytest.approx(110.0)

    sim.process(proc())
    sim.run()


def test_flow_vs_batch_acquisition_rate(sim, rngs, qd_landscape, qd_params):
    # The structural precondition of E7: flow makes >100x samples per
    # reagent unit and far more per unit time.
    batch = BatchSynthesisRobot(sim, "batch-1", "ornl", rngs, qd_landscape,
                                batch_time_s=1800.0,
                                reagent_per_sample_mL=10.0)
    flow = FluidicReactor(sim, "flow-1", "ornl", rngs, qd_landscape,
                          sample_time_s=12.0, reagent_per_sample_mL=0.05)
    assert (batch.batch_time_s / flow.sample_time_s) > 100
    assert (batch.reagent_per_sample_mL / flow.reagent_per_sample_mL) > 100
