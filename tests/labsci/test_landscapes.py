"""Tests for parameter spaces and synthetic landscapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labsci import (ContinuousDim, DiscreteDim, ParameterSpace,
                          SyntheticLandscape)


@pytest.fixture
def space():
    return ParameterSpace([
        DiscreteDim("chem", ("a", "b", "c")),
        ContinuousDim("temp", 0.0, 100.0),
        ContinuousDim("time", 1.0, 10.0),
    ])


def test_dim_validation():
    with pytest.raises(ValueError):
        ContinuousDim("x", 5.0, 5.0)
    with pytest.raises(ValueError):
        DiscreteDim("x", ("only",))
    with pytest.raises(ValueError):
        DiscreteDim("x", ("a", "a"))


def test_space_rejects_duplicate_names():
    with pytest.raises(ValueError):
        ParameterSpace([ContinuousDim("x", 0, 1), ContinuousDim("x", 0, 2)])


def test_validate_complete_params(space):
    space.validate({"chem": "a", "temp": 50.0, "time": 5.0})
    with pytest.raises(ValueError, match="missing"):
        space.validate({"chem": "a", "temp": 50.0})
    with pytest.raises(ValueError, match="extra"):
        space.validate({"chem": "a", "temp": 50.0, "time": 5.0, "x": 1})
    with pytest.raises(ValueError, match="domain"):
        space.validate({"chem": "a", "temp": 500.0, "time": 5.0})
    with pytest.raises(ValueError, match="domain"):
        space.validate({"chem": "zzz", "temp": 50.0, "time": 5.0})


def test_sample_always_valid(space):
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert space.contains(space.sample(rng))


def test_n_conditions(space):
    # 3 discrete choices * 100^2 continuous grid
    assert space.n_conditions(100) == 3 * 100 * 100


def test_encode_shape_and_range(space):
    p = {"chem": "b", "temp": 25.0, "time": 1.0}
    v = space.encode(p)
    assert v.shape == (space.encoded_size,)
    assert space.encoded_size == 3 + 2
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    # one-hot for chem=b
    assert list(v[1:4]) == [0.0, 1.0, 0.0] or list(v[:3]) == [0.0, 1.0, 0.0]


def test_discrete_key_and_with_discrete(space):
    p = {"chem": "c", "temp": 10.0, "time": 2.0}
    key = space.discrete_key(p)
    assert key == ("c",)
    rebuilt = space.with_discrete(key, {"temp": 10.0, "time": 2.0})
    assert rebuilt == p


def test_discrete_combinations(space):
    assert space.discrete_combinations() == [("a",), ("b",), ("c",)]
    two = ParameterSpace([DiscreteDim("x", ("1", "2")),
                          DiscreteDim("y", ("p", "q"))])
    assert len(two.discrete_combinations()) == 4


def test_normalize_denormalize_roundtrip():
    d = ContinuousDim("t", -10.0, 30.0)
    assert d.normalize(-10.0) == 0.0
    assert d.normalize(30.0) == 1.0


# -- SyntheticLandscape ----------------------------------------------------------

@pytest.fixture
def landscape(space):
    return SyntheticLandscape(space, seed=7, n_peaks=3)


def test_landscape_deterministic(space):
    l1 = SyntheticLandscape(space, seed=7)
    l2 = SyntheticLandscape(space, seed=7)
    p = {"chem": "a", "temp": 42.0, "time": 3.3}
    assert l1.evaluate(p) == l2.evaluate(p)


def test_landscape_seed_changes_surface(space):
    p = {"chem": "a", "temp": 42.0, "time": 3.3}
    r1 = SyntheticLandscape(space, seed=1).evaluate(p)["response"]
    r2 = SyntheticLandscape(space, seed=2).evaluate(p)["response"]
    assert r1 != r2


def test_landscape_output_in_range(landscape, space):
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = landscape.evaluate(space.sample(rng))["response"]
        assert 0.0 <= r <= 1.0 + 1e9 * 0  # peaks can stack slightly above 1
        assert r >= 0.0


def test_landscape_smooth_locally(landscape):
    p1 = {"chem": "a", "temp": 50.0, "time": 5.0}
    p2 = {"chem": "a", "temp": 50.01, "time": 5.0}
    r1 = landscape.evaluate(p1)["response"]
    r2 = landscape.evaluate(p2)["response"]
    assert abs(r1 - r2) < 0.01


def test_landscape_discrete_choice_matters(landscape):
    p = {"temp": 50.0, "time": 5.0}
    values = {c: landscape.evaluate({**p, "chem": c})["response"]
              for c in ("a", "b", "c")}
    assert len(set(values.values())) == 3


def test_landscape_validates_params(landscape):
    with pytest.raises(ValueError):
        landscape.evaluate({"chem": "a", "temp": -5.0, "time": 5.0})


def test_best_estimate_finds_good_point(landscape):
    best_value, best_params = landscape.best_estimate(n_random=3000,
                                                      refine_top=3)
    assert landscape.space.contains(best_params)
    # The oracle must beat a modest random search.
    rng = np.random.default_rng(0)
    random_best = max(landscape.objective_value(landscape.space.sample(rng))
                      for _ in range(200))
    assert best_value >= random_best


def test_best_estimate_cached(landscape):
    a = landscape.best_estimate(n_random=500, refine_top=2)
    b = landscape.best_estimate(n_random=999999)  # would be slow if not cached
    assert a == b


@given(st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=1.0, max_value=10.0),
       st.sampled_from(["a", "b", "c"]))
@settings(max_examples=50, deadline=None)
def test_property_landscape_total_function(temp, time, chem):
    space = ParameterSpace([
        DiscreteDim("chem", ("a", "b", "c")),
        ContinuousDim("temp", 0.0, 100.0),
        ContinuousDim("time", 1.0, 10.0),
    ])
    land = SyntheticLandscape(space, seed=11)
    r = land.evaluate({"chem": chem, "temp": temp, "time": time})["response"]
    assert np.isfinite(r)
    assert r >= 0.0


# -- batched fast path ----------------------------------------------------------


def test_dim_lookup_and_keyerror(space):
    assert space.dim("temp").name == "temp"
    assert space.dim("chem").choices == ("a", "b", "c")
    with pytest.raises(KeyError):
        space.dim("nope")


def test_discrete_index_lookup():
    d = DiscreteDim("chem", ("a", "b", "c"))
    assert [d.index(c) for c in d.choices] == [0, 1, 2]
    with pytest.raises(ValueError):
        d.index("zzz")


def test_sample_batch_shape_and_validity(space):
    rng = np.random.default_rng(3)
    raw = space.sample_batch(rng, 50)
    assert raw.shape == (50, len(space))
    for p in space.decode_batch(raw):
        space.validate(p)


def test_encode_batch_bit_identical_to_rowwise(space):
    rng = np.random.default_rng(4)
    points = [space.sample(rng) for _ in range(64)]
    batch = space.encode_batch(points)
    rowwise = np.array([space.encode(p) for p in points])
    assert batch.dtype == np.float64
    assert np.array_equal(batch, rowwise)


def test_encode_raw_batch_matches_encode(space):
    rng = np.random.default_rng(5)
    raw = space.sample_batch(rng, 40)
    from_raw = space.encode_raw_batch(raw)
    from_dicts = np.array([space.encode(p) for p in space.decode_batch(raw)])
    assert np.array_equal(from_raw, from_dicts)


def test_raw_point_decode_roundtrip(space):
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = space.sample(rng)
        assert space.decode_batch(space.raw_point(p))[0] == p


def test_sample_batch_marginals_match_scalar(space):
    """Per-dim marginals of the batched and scalar samplers agree (KS)."""
    n = 3000
    rng_a = np.random.default_rng(8)
    rng_b = np.random.default_rng(9)
    scalar = [space.sample(rng_a) for _ in range(n)]
    batch = space.decode_batch(space.sample_batch(rng_b, n))
    for d in space.dims:
        if isinstance(d, ContinuousDim):
            a = np.sort([p[d.name] for p in scalar])
            b = np.sort([p[d.name] for p in batch])
            grid = np.sort(np.concatenate([a, b]))
            ks = np.max(np.abs(
                np.searchsorted(a, grid, side="right") / n
                - np.searchsorted(b, grid, side="right") / n))
            assert ks < 0.05, (d.name, ks)
        else:
            for c in d.choices:
                fa = sum(p[d.name] == c for p in scalar) / n
                fb = sum(p[d.name] == c for p in batch) / n
                assert abs(fa - fb) < 0.04, (d.name, c, fa, fb)


def test_synthetic_evaluate_batch_matches_scalar(space):
    land = SyntheticLandscape(space, seed=13)
    rng = np.random.default_rng(10)
    points = [space.sample(rng) for _ in range(100)]
    batch = land.evaluate_batch(points)
    assert set(batch) == {"response"}
    for i, p in enumerate(points):
        assert batch["response"][i] == land.evaluate(p)["response"]


def test_evaluate_batch_validates(space):
    land = SyntheticLandscape(space, seed=13)
    with pytest.raises(ValueError):
        land.evaluate_batch([{"chem": "a", "temp": 5000.0, "time": 5.0}])


def test_objective_batch_matches_objective_value(space):
    land = SyntheticLandscape(space, seed=14)
    rng = np.random.default_rng(11)
    points = [space.sample(rng) for _ in range(25)]
    vals = land.objective_batch(points)
    for i, p in enumerate(points):
        assert vals[i] == land.objective_value(p)
