"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.comm.bus import topic_matches
from repro.core.metrics import reduction_fraction, speedup
from repro.data import DataRecord, fair_score
from repro.data.schema import _UNIT_CONVERSIONS, SchemaError, convert_unit
from repro.labsci import ContinuousDim, DiscreteDim, ParameterSpace
from repro.perf.legacy_ask import legacy_sample
from repro.sim import PriorityStore, Simulator

# -- topic matching --------------------------------------------------------------

_segment = st.text(alphabet="abcxyz", min_size=1, max_size=4)
_topic = st.lists(_segment, min_size=1, max_size=5).map(".".join)


@given(_topic)
@settings(max_examples=80, deadline=None)
def test_property_topic_matches_itself(topic):
    assert topic_matches(topic, topic)
    assert topic_matches("#", topic)


@given(_topic)
@settings(max_examples=80, deadline=None)
def test_property_star_matches_any_single_segment(topic):
    segments = topic.split(".")
    for i in range(len(segments)):
        pattern = ".".join(segments[:i] + ["*"] + segments[i + 1:])
        assert topic_matches(pattern, topic)


@given(_topic, _segment)
@settings(max_examples=80, deadline=None)
def test_property_extra_segment_breaks_exact_match(topic, extra):
    assert not topic_matches(topic, topic + "." + extra)
    assert topic_matches(topic + ".#", topic + "." + extra)


# -- unit conversion --------------------------------------------------------------

@given(st.sampled_from(sorted(_UNIT_CONVERSIONS)),
       st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_property_unit_conversion_round_trips(unit, value):
    canonical, _fn = _UNIT_CONVERSIONS[unit]
    forward = convert_unit(value, unit, canonical)
    back = convert_unit(forward, canonical, unit)
    assert back == pytest.approx(value, rel=1e-9, abs=1e-6)


# -- parameter spaces ------------------------------------------------------------------

_bounds = (st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
           .map(sorted).filter(lambda b: b[0] < b[1]))


@st.composite
def _spaces(draw):
    """1-6 dims, continuous and discrete interleaved in any declared order
    (the domain spaces declare their discrete dims first)."""
    kinds = draw(st.lists(st.one_of(_bounds, st.integers(2, 64)),
                          min_size=1, max_size=6))
    dims = []
    for i, kind in enumerate(kinds):
        if isinstance(kind, int):
            dims.append(DiscreteDim(f"x{i}",
                                    tuple(f"v{j}" for j in range(kind))))
        else:
            dims.append(ContinuousDim(f"x{i}", *kind))
    return ParameterSpace(dims)


@given(_spaces(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_property_samples_encode_into_unit_box(space, seed):
    rng = np.random.default_rng(seed)
    p = space.sample(rng)
    space.validate(p)
    v = space.encode(p)
    assert v.shape == (space.encoded_size,)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    # each discrete one-hot block sums to 1, wherever its dim is declared
    offset = 0
    for d in space.dims:
        if isinstance(d, DiscreteDim):
            block = v[offset:offset + len(d.choices)]
            assert block.sum() == pytest.approx(1.0)
            offset += len(d.choices)
        else:
            offset += 1


@given(_spaces(), st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_property_sample_replays_scalar_oracle(space, seed, k):
    """``sample`` (``sample_batch``'s one-row case) consumes the stream
    exactly as the frozen per-dim scalar loop: same dicts, key order and
    value types, and the same generator state afterwards."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(k):
        got, want = space.sample(rng), legacy_sample(space, twin)
        assert list(got.items()) == list(want.items())
        assert list(map(type, got.values())) == list(map(type, want.values()))
    assert rng.bit_generator.state == twin.bit_generator.state


@given(_spaces(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_property_discrete_key_round_trip(space, seed):
    rng = np.random.default_rng(seed)
    p = space.sample(rng)
    key = space.discrete_key(p)
    cont = {d.name: p[d.name] for d in space.continuous}
    assert space.with_discrete(key, cont) == p


# -- metrics ---------------------------------------------------------------------------

@given(st.floats(0.001, 1e9), st.floats(0.001, 1e9))
@settings(max_examples=80, deadline=None)
def test_property_speedup_reduction_consistency(base, improved):
    s = speedup(base, improved)
    r = reduction_fraction(base, improved)
    assert s is not None and r is not None
    # speedup > 1 <=> positive reduction
    assert (s > 1.0) == (r > 0.0)
    assert r == pytest.approx(1.0 - 1.0 / s)


# -- FAIR score bounds -------------------------------------------------------------------

@given(st.booleans(), st.text(max_size=8), st.text(max_size=8),
       st.sampled_from(["", "open", "restricted"]),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_property_fair_scores_bounded(indexed, license_, technique,
                                      sensitivity, with_quality):
    rec = DataRecord(source="s", values={"x": 1.0},
                     license=license_, sensitivity=sensitivity,
                     metadata={"technique": technique} if technique else {},
                     quality={"score": 0.5} if with_quality else None)
    report = fair_score(rec, indexed=indexed)
    for attr in ("findable", "accessible", "interoperable", "reusable"):
        assert 0.0 <= getattr(report, attr) <= 1.0
    assert 0.0 <= report.overall <= 1.0


def test_property_fair_monotone_in_enrichment():
    bare = DataRecord(source="s", values={"x": 1.0})
    rich = DataRecord(source="s", values={"x": 1.0}, license="MIT",
                      metadata={"technique": "xrd", "units": {"x": "u"}},
                      quality={"score": 1.0})
    assert fair_score(rich, indexed=True).overall \
        > fair_score(bare, indexed=False).overall


# -- priority store total order -----------------------------------------------------------

@given(st.lists(st.tuples(st.integers(-100, 100), st.integers(0, 1000)),
                min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_property_priority_store_yields_sorted(items):
    sim = Simulator()
    store = PriorityStore(sim)
    for it in items:
        store.put(it)
    got = []

    def consumer():
        for _ in range(len(items)):
            got.append((yield store.get()))

    sim.process(consumer())
    sim.run()
    assert got == sorted(items)
