"""Tests for named deterministic random streams."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngRegistry


def test_same_seed_same_name_same_stream():
    a = RngRegistry(7).stream("x").random(10)
    b = RngRegistry(7).stream("x").random(10)
    assert np.array_equal(a, b)


def test_stream_memoized_within_registry():
    reg = RngRegistry(7)
    assert reg.stream("x") is reg.stream("x")


def test_different_names_give_different_streams():
    reg = RngRegistry(7)
    a = reg.stream("a").random(10)
    b = reg.stream("b").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_give_different_streams():
    a = RngRegistry(1).stream("x").random(10)
    b = RngRegistry(2).stream("x").random(10)
    assert not np.array_equal(a, b)


def test_creation_order_does_not_matter():
    r1 = RngRegistry(5)
    r1.stream("first")
    a = r1.stream("probe").random(5)

    r2 = RngRegistry(5)
    r2.stream("other")
    r2.stream("and-another")
    b = r2.stream("probe").random(5)
    assert np.array_equal(a, b)


def test_fresh_replays_from_start():
    reg = RngRegistry(3)
    a = reg.fresh("x").random(5)
    b = reg.fresh("x").random(5)
    assert np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_property_streams_reproducible(seed, name):
    a = RngRegistry(seed).stream(name).integers(0, 2**31, size=4)
    b = RngRegistry(seed).stream(name).integers(0, 2**31, size=4)
    assert np.array_equal(a, b)


@given(st.text(min_size=1, max_size=30), st.text(min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_property_distinct_names_distinct_streams(n1, n2):
    if n1 == n2:
        return
    reg = RngRegistry(11)
    a = reg.stream(n1).random(8)
    b = reg.stream(n2).random(8)
    assert not np.array_equal(a, b)
