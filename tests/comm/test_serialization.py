"""``estimate_size`` against the recursive walk it replaced, bit for bit."""

import enum
from collections import OrderedDict, namedtuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.serialization import estimate_size


def _oracle_size(obj, depth=0, memo=None):
    """The recursive ``isinstance`` walk, with memoryviews priced by bytes."""
    if depth > 16:
        return 8.0
    if obj is None or isinstance(obj, bool):
        return 1.0
    if isinstance(obj, (int, float, complex)):
        return 8.0
    if isinstance(obj, str):
        return float(len(obj.encode("utf-8", errors="replace"))) + 4.0
    if isinstance(obj, (bytes, bytearray)):
        return float(len(obj)) + 4.0
    if isinstance(obj, memoryview):
        return float(obj.nbytes) + 4.0
    if isinstance(obj, (dict, list, tuple, set, frozenset, np.ndarray)):
        if memo is None:
            memo = {}
        elif id(obj) in memo:
            return 8.0
        memo[id(obj)] = obj
    if isinstance(obj, np.ndarray):
        return float(obj.nbytes) + 64.0
    if isinstance(obj, np.generic):
        return float(obj.nbytes)
    if isinstance(obj, dict):
        return 8.0 + sum(_oracle_size(k, depth + 1, memo)
                         + _oracle_size(v, depth + 1, memo)
                         for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8.0 + sum(_oracle_size(x, depth + 1, memo) for x in obj)
    inner = getattr(obj, "__dict__", None)
    if isinstance(inner, dict) and inner:
        return 8.0 + _oracle_size(inner, depth + 1, memo)
    return 64.0


class Color(enum.IntEnum):
    RED = 1
    BLUE = 2


class Tag(str):
    pass


Point = namedtuple("Point", "x y")


class Bag:
    """An object priced through its ``__dict__``."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


class Slotted:
    """An object without a ``__dict__``: a flat 64 bytes."""

    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x


# -- generated payloads -------------------------------------------------------

_hashable = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.complex_numbers(), st.text(max_size=8), st.binary(max_size=8),
    st.sampled_from(list(Color)), st.text(max_size=5).map(Tag),
    st.floats().map(np.float64), st.integers(-2**31, 2**31 - 1).map(np.int32))

_arrays = st.one_of(
    st.integers(0, 40).map(lambda n: np.arange(n, dtype=np.float64)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(
        lambda shape: np.zeros(shape, dtype=np.int16)))

_leaves = st.one_of(
    _hashable, _arrays,
    st.binary(max_size=8).map(bytearray),
    st.binary(max_size=8).map(memoryview),
    _arrays.map(memoryview),
    st.integers().map(Slotted), st.just(Bag()),
    st.frozensets(_hashable, max_size=3),
    st.tuples(_hashable, _hashable).map(lambda t: Point(*t)))


def _self_list(child):
    lst = [child]
    lst.append(lst)
    return lst


def _self_dict(child):
    d = {"x": child}
    d["self"] = d
    return d


def _self_object(child):
    obj = Bag(x=child)
    obj.me = obj
    return obj


def _nest(child, depth):
    """``child`` under ``depth`` alternating list/dict levels."""
    for i in range(depth):
        child = [child, i] if i % 2 else {"k": child, "n": None}
    return child


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(_hashable, max_size=4),
        st.dictionaries(_hashable, children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4).map(
            OrderedDict),
        st.dictionaries(st.text(max_size=4), children, max_size=3).map(
            lambda d: Bag(**{f"f{i}": v for i, v in enumerate(d.values())})),
        # shared sub-structures: one object reached twice
        children.map(lambda c: [c, c]),
        children.map(lambda c: {"a": c, "b": (c, [c])}),
        # self-references, through a list, a dict and an object
        children.map(_self_list),
        children.map(_self_dict),
        children.map(_self_object),
        # across the depth cap
        st.tuples(children, st.integers(12, 20)).map(lambda t: _nest(*t)),
    )


_payloads = st.recursive(_leaves, _containers, max_leaves=24)


@given(_payloads)
@settings(max_examples=150, deadline=None)
def test_property_estimate_size_matches_recursive_oracle(payload):
    got = estimate_size(payload)
    assert type(got) is float
    assert got.hex() == _oracle_size(payload).hex()


# -- pinned cases -------------------------------------------------------------

def test_rpc_request_payload_size():
    payload = {"method": "measure",
               "args": {"site": 3, "seq": 17, "channels": [3, 17, 20]}}
    assert estimate_size(payload) == 120.0
    assert estimate_size(payload["args"]) == 83.0


def test_memoryview_costs_its_bytes():
    # A memoryview used to cost len() + 4: its element count, not bytes.
    flat = memoryview(np.zeros(1000))
    assert estimate_size(flat) == 8004.0
    assert estimate_size(flat) == estimate_size(flat.tobytes())
    grid = memoryview(np.zeros((10, 10)))
    assert grid.nbytes == 800
    assert estimate_size(grid) == 804.0
    assert estimate_size(memoryview(b"abc")) == 7.0


def _lists(child, depth):
    for _ in range(depth):
        child = [child]
    return child


def test_anything_past_the_depth_cap_costs_eight_bytes():
    # Depth counts containers: 16 lists deep a None costs 1, 17 deep 8.
    assert estimate_size(_lists(None, 16)) == 16 * 8.0 + 1.0
    assert estimate_size(_lists(None, 17)) == 17 * 8.0 + 8.0
    assert estimate_size(_lists("abcd", 17)) == 17 * 8.0 + 8.0
    # A container past the cap is not memoized, so its next reference,
    # above the cap, pays in full (8 + 3 ints), not the 8-byte pointer.
    shared = [1, 2, 3]
    assert estimate_size([_lists(shared, 16), shared]) == (
        8.0 + (16 * 8.0 + 8.0) + 32.0)


def test_subclasses_take_the_isinstance_chain():
    assert estimate_size(Color.RED) == 8.0
    assert estimate_size(np.float64(2.5)) == 8.0   # a float subclass
    assert estimate_size(np.int32(7)) == 4.0       # nbytes
    assert estimate_size(Tag("abc")) == 7.0
    assert estimate_size(Point(1, "a")) == 8.0 + 8.0 + 5.0
    assert estimate_size(OrderedDict(a=1)) == 8.0 + 5.0 + 8.0
