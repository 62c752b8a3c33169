"""Tests for messages, envelopes, and size estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Envelope, Message, Performative, estimate_size


def test_message_ids_unique():
    a = Message(Performative.INFORM, "x", "y")
    b = Message(Performative.INFORM, "x", "y")
    assert a.msg_id != b.msg_id


def test_message_size_includes_payload():
    small = Message(Performative.INFORM, "a", "b", payload="x")
    big = Message(Performative.INFORM, "a", "b", payload="x" * 10_000)
    assert big.size_bytes() > small.size_bytes() + 9_000


def test_envelope_size_exceeds_message_size():
    msg = Message(Performative.INFORM, "a", "b", payload=[1, 2, 3])
    env = Envelope(message=msg, src_site="s1", dst_site="s2")
    assert env.size_bytes() > msg.size_bytes()


# -- estimate_size ------------------------------------------------------------

def test_estimate_size_scalars():
    assert estimate_size(None) == 1.0
    assert estimate_size(True) == 1.0
    assert estimate_size(3) == 8.0
    assert estimate_size(3.14) == 8.0


def test_estimate_size_string_tracks_length():
    assert estimate_size("abcd") == pytest.approx(8.0)
    assert estimate_size("é") == pytest.approx(6.0)  # 2 utf-8 bytes + 4


def test_estimate_size_numpy_uses_nbytes():
    arr = np.zeros(1000, dtype=np.float64)
    assert estimate_size(arr) == pytest.approx(8064.0)


def test_estimate_size_nested_containers():
    nested = {"a": [1, 2, 3], "b": {"c": "xyz"}}
    assert estimate_size(nested) > estimate_size({"a": [1]})


def test_estimate_size_unknown_object():
    class Thing:
        pass
    assert estimate_size(Thing()) >= 64.0

    class WithDict:
        def __init__(self):
            self.data = "x" * 100
    assert estimate_size(WithDict()) > 100.0


def test_estimate_size_shared_array_counted_once():
    # Regression: the same 8 KB array referenced twice used to be billed
    # twice; the memo charges the second reference a flat pointer cost.
    arr = np.zeros(1000, dtype=np.float64)
    once = estimate_size({"a": arr})
    twice = estimate_size({"a": arr, "b": arr})
    assert twice < once + 100.0
    assert twice > once  # the extra key + reference still cost something
    # Two *distinct* equal arrays are genuinely written twice.
    distinct = estimate_size({"a": arr, "b": arr.copy()})
    assert distinct > 2 * arr.nbytes


def test_estimate_size_shared_dict_counted_once():
    shared = {"w": list(range(200))}
    single = estimate_size([shared])
    double = estimate_size([shared, shared])
    assert double < single + 100.0


def test_estimate_size_memo_is_per_call():
    # Identity memoization must not leak across calls: the same object
    # costs the same in two separate calls.
    payload = {"x": np.ones(64)}
    assert estimate_size(payload) == estimate_size(payload)


def test_estimate_size_equal_strings_not_deduplicated():
    # Strings are written per occurrence; interning must not shrink them.
    s = "spectrum-channel"
    assert estimate_size([s, s]) == pytest.approx(
        8.0 + 2 * (len(s) + 4.0))


def test_estimate_size_recursion_bounded():
    lst: list = []
    lst.append(lst)  # self-referential
    # depth cap prevents infinite recursion
    assert estimate_size(lst) > 0


@given(st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
              st.text(max_size=20)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=5), children, max_size=5)),
    max_leaves=20))
@settings(max_examples=60, deadline=None)
def test_property_estimate_size_positive_and_deterministic(obj):
    s1 = estimate_size(obj)
    s2 = estimate_size(obj)
    assert s1 == s2
    assert s1 > 0
