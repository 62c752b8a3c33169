"""Tests for the domain landscapes and samples."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.labsci import (ContinuousDim, PerovskiteLandscape,
                          QuantumDotLandscape, Sample)


# -- quantum dots ------------------------------------------------------------

@pytest.fixture(scope="module")
def qd():
    return QuantumDotLandscape(seed=3)


def test_qd_condition_count_matches_paper_claim(qd):
    # Smart Dope: "navigates 10^13 possible synthesis conditions".
    assert qd.n_conditions_at_sdl_resolution() >= 1e13


def test_qd_properties_complete_and_bounded(qd):
    rng = np.random.default_rng(0)
    for _ in range(50):
        props = qd.evaluate(qd.space.sample(rng))
        assert set(props) == {"plqy", "emission_nm", "stability"}
        assert 0.0 <= props["plqy"] <= 1.0
        assert 0.0 <= props["stability"] <= 1.0
        assert 300.0 < props["emission_nm"] < 1100.0


def test_qd_emission_shifts_with_concentration(qd):
    rng = np.random.default_rng(1)
    base = qd.space.sample(rng)
    low = dict(base, dopant_conc=0.01)
    high = dict(base, dopant_conc=0.4)
    assert qd.evaluate(high)["emission_nm"] > qd.evaluate(low)["emission_nm"]


def test_qd_deterministic(qd):
    p = qd.space.sample(np.random.default_rng(2))
    assert qd.evaluate(p) == QuantumDotLandscape(seed=3).evaluate(p)


# -- perovskite -----------------------------------------------------------------

def test_perovskite_quality_peaks_near_target_wavelength():
    land = PerovskiteLandscape(seed=5)
    rng = np.random.default_rng(0)
    # Find the halide ratio giving ~520 nm for a fixed recipe; quality must
    # dominate a recipe of equal PLQY far from target.
    base = land.space.sample(rng)
    near = max((land.evaluate(dict(base, halide_ratio=h))
                for h in np.linspace(0, 1, 101)),
               key=lambda p: -abs(p["emission_nm"] - 520.0))
    far = max((land.evaluate(dict(base, halide_ratio=h))
               for h in np.linspace(0, 1, 101)),
              key=lambda p: abs(p["emission_nm"] - 520.0))
    assert abs(near["emission_nm"] - 520.0) < abs(far["emission_nm"] - 520.0)


def test_perovskite_site_calibration_shifts_results():
    p = PerovskiteLandscape(seed=5).space.sample(np.random.default_rng(1))
    ref = PerovskiteLandscape(seed=5).evaluate(p)
    site_a = PerovskiteLandscape(seed=5, site="ornl",
                                 calibration_scale=1.0).evaluate(p)
    site_b = PerovskiteLandscape(seed=5, site="anl",
                                 calibration_scale=1.0).evaluate(p)
    # Systematic offsets: sites disagree with the reference and each other.
    assert site_a != ref or site_b != ref
    assert site_a != site_b


def test_perovskite_site_offsets_deterministic():
    p = PerovskiteLandscape(seed=5).space.sample(np.random.default_rng(1))
    a1 = PerovskiteLandscape(seed=5, site="ornl", calibration_scale=1.0)
    a2 = PerovskiteLandscape(seed=5, site="ornl", calibration_scale=1.0)
    assert a1.evaluate(p) == a2.evaluate(p)


def test_perovskite_same_optimum_structure_across_sites():
    # Calibration shifts are small: a good recipe at one site is still
    # decent at another (transfer learning has signal to exploit, E3).
    land_ref = PerovskiteLandscape(seed=5)
    best_v, best_p = land_ref.best_estimate(n_random=4000, refine_top=3)
    land_site = PerovskiteLandscape(seed=5, site="pnnl",
                                    calibration_scale=1.0)
    assert land_site.objective_value(best_p) > 0.5 * best_v


# -- samples ---------------------------------------------------------------------------------

def test_sample_carries_truth_privately(qd):
    p = qd.space.sample(np.random.default_rng(5))
    s = Sample.synthesize(p, qd, site="ornl")
    assert s.true_properties() == qd.evaluate(p)
    assert s.sample_id.startswith("sample-")
    assert s.site == "ornl"


def test_sample_ids_unique(qd):
    p = qd.space.sample(np.random.default_rng(5))
    ids = {Sample.synthesize(p, qd).sample_id for _ in range(10)}
    assert len(ids) == 10


def test_sample_provenance_records(qd):
    p = qd.space.sample(np.random.default_rng(7))
    s = Sample.synthesize(p, qd)
    s.record(1.0, "robot-1", "synthesize")
    s.record(2.0, "spec-1", "measure")
    assert [op for _, _, op in s.provenance] == ["synthesize", "measure"]


# -- evaluate_batch is evaluate, row by row ---------------------------------------

def _point(space):
    return st.fixed_dictionaries({
        d.name: (st.floats(d.low, d.high) if isinstance(d, ContinuousDim)
                 else st.sampled_from(d.choices))
        for d in space})


#: Point lists for every landscape class at once, keyed by class name, so
#: an explicit example can name points in one landscape's space and each
#: parametrization reads the list for its own class.
_POINTS = st.fixed_dictionaries({
    cls.__name__: st.lists(_point(cls().space), max_size=6)
    for cls in (QuantumDotLandscape, PerovskiteLandscape)})


@pytest.mark.parametrize("make", [
    lambda seed: QuantumDotLandscape(seed=seed),
    lambda seed: PerovskiteLandscape(seed=seed),
    lambda seed: PerovskiteLandscape(seed=seed, site="lab-b",
                                     calibration_scale=1.0),
])
@given(seed=st.integers(0, 15), points=_POINTS)
# A point where an array-expression twin of ``evaluate`` rounded
# differently on an AVX-512 host: quantum-dot stability
# (0.35701539400931515 vs 0.3570153940093152).
@example(seed=7, points={"QuantumDotLandscape": [
    {"dopant": "In", "ligand": "oleic-acid", "solvent": "toluene",
     "halide_source": "PbBr2", "temperature": 87.48144424848788,
     "dopant_conc": 0.34846619020039993,
     "residence_time": 123.16095885340376,
     "flow_ratio": 0.06711072058707149}]})
@settings(max_examples=60, deadline=None)
def test_evaluate_batch_matches_scalar(make, seed, points):
    """Every column of ``evaluate_batch`` equals ``evaluate`` row by row,
    bit for bit, on generated point lists (empty and one-row included)."""
    land = make(seed)
    points = points.get(type(land).__name__, [])
    batch = land.evaluate_batch(points)
    assert list(batch) == list(land.properties)
    for name in land.properties:
        assert batch[name].dtype == np.float64
        assert batch[name].shape == (len(points),)
    for i, p in enumerate(points):
        scalar = land.evaluate(p)
        for name in land.properties:
            assert float(batch[name][i]).hex() == float(scalar[name]).hex(), \
                (name, i)
