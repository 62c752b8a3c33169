"""Wire-size estimation for simulated payloads.

The simulation never serializes payloads for real — objects are passed by
reference inside one Python process — and transfer *times* must reflect
payload sizes.  :func:`estimate_size` walks common container shapes and
numpy arrays to produce a stable, deterministic byte estimate.

Shared sub-structures are costed **once per call**: a payload that
references the same large dict or numpy array from two places is charged
the full size at the first reference and a flat pointer cost after that
(the wire format is assumed to deduplicate by reference, the way every
sane serializer of scientific payloads does).  Before this memo existed a
telemetry message embedding one 8 MB array twice was billed 16 MB on
every publish — and the walk itself re-traversed the shared structure
each time.

The walk is one function, and it prices an object in this order:

1. Past the depth cap — more than 16 containers deep — anything costs a
   flat 8 bytes and is neither walked nor memoized, so a self-referential
   payload ends.
2. An object of exact type ``None``, ``bool``, ``int``, ``float`` or
   ``complex`` reads its cost from a table (1 or 8 bytes), and an exact
   ``str`` costs its UTF-8 length plus 4.  Inside a dict or a sequence
   these leaves are priced inline, without a call: the walk recurses only
   into containers and other types.
3. Everything else goes through one ``isinstance`` chain: subclasses of
   the scalars and of ``str`` (``IntEnum``, ``np.float64``), ``bytes`` and
   ``bytearray`` (length plus 4), ``memoryview`` (``nbytes`` plus 4: a
   view of 1,000 float64 costs 8,004 bytes, as its ``tobytes()`` does),
   numpy arrays (``nbytes`` plus 64), numpy scalars (``nbytes``), dicts
   and sequences, then objects (8 plus their ``__dict__`` when it is a
   non-empty dict, else 64).

Only containers and arrays enter the identity memo, one memo per
top-level call.  A container's cost is 8 plus its children's costs,
added in iteration order (for a dict, each key's cost plus its value's).
Every cost is a whole number of bytes, so the totals are exact below
2**53 bytes.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

#: Fixed per-object overhead charged for framing/field tags.
_OBJ_OVERHEAD = 8.0

#: Cost of a repeated reference to an already-costed sub-structure.
_REF_COST = 8.0

#: Deepest container level walked; anything deeper costs _OBJ_OVERHEAD.
_MAX_DEPTH = 16

#: Cost of each exact scalar type, the walk's first dispatch.  Every cost
#: is non-zero: the container loops fall back to the walk with ``or``.
_SCALAR_COST = {type(None): 1.0, bool: 1.0, int: 8.0, float: 8.0,
                complex: 8.0}

#: Container types memoized by identity within one estimate_size call.
#: Scalars and strings are deliberately *not* deduplicated: interning
#: makes their identity an implementation detail, and each occurrence
#: really is written out on the wire.
_MEMOIZED_TYPES = (dict, list, tuple, set, frozenset, np.ndarray)


def estimate_size(obj: Any, _depth: int = 0,
                  _memo: Optional[dict] = None) -> float:
    """Estimate the serialized size of ``obj`` in bytes.

    Supports scalars, strings/bytes, numpy arrays, and (nested) mappings /
    sequences of those.  Unknown objects are charged a conservative flat
    cost plus the size of their ``__dict__`` when present; estimation never
    raises.  Within a single call, containers and arrays already visited
    (by identity) cost :data:`_REF_COST` instead of being re-charged.  The
    module docstring gives the dispatch order.
    """
    if _depth > _MAX_DEPTH:
        return _OBJ_OVERHEAD
    cls = type(obj)
    cost = _SCALAR_COST.get(cls)
    if cost is not None:
        return cost
    if cls is str:
        return len(obj.encode("utf-8", "replace")) + 4.0

    if not isinstance(obj, _MEMOIZED_TYPES):
        if isinstance(obj, (int, float, complex)):
            return 8.0
        if isinstance(obj, str):
            return len(obj.encode("utf-8", "replace")) + 4.0
        if isinstance(obj, (bytes, bytearray)):
            return len(obj) + 4.0
        if isinstance(obj, memoryview):
            return obj.nbytes + 4.0
        if isinstance(obj, np.generic):
            return float(obj.nbytes)
        inner = getattr(obj, "__dict__", None)
        if isinstance(inner, dict) and inner:
            return _OBJ_OVERHEAD + estimate_size(inner, _depth + 1, _memo)
        return 64.0

    if _memo is None:
        # The memo holds ids of objects kept alive by the structure
        # being walked, so ids cannot be recycled mid-call.
        _memo = {}
    elif id(obj) in _memo:
        return _REF_COST
    _memo[id(obj)] = obj  # keep a reference: pin the id
    is_dict = isinstance(obj, dict)
    if not is_dict and isinstance(obj, np.ndarray):
        return obj.nbytes + 64.0

    child = _depth + 1
    if child > _MAX_DEPTH:
        # Every key, value and item lies past the cap.
        if is_dict:
            return _OBJ_OVERHEAD + sum(2 * _OBJ_OVERHEAD for _ in obj.items())
        return _OBJ_OVERHEAD + sum(_OBJ_OVERHEAD for _ in obj)
    scalar_cost = _SCALAR_COST.get
    total = 0.0
    if is_dict:
        for key, value in obj.items():
            kind = type(key)
            if kind is str:
                size = len(key.encode("utf-8", "replace")) + 4.0
            else:
                size = scalar_cost(kind) or estimate_size(key, child, _memo)
            kind = type(value)
            if kind is str:
                size += len(value.encode("utf-8", "replace")) + 4.0
            else:
                size += (scalar_cost(kind)
                         or estimate_size(value, child, _memo))
            total += size
    else:  # list, tuple, set, frozenset
        for item in obj:
            kind = type(item)
            if kind is str:
                total += len(item.encode("utf-8", "replace")) + 4.0
            else:
                total += (scalar_cost(kind)
                          or estimate_size(item, child, _memo))
    return _OBJ_OVERHEAD + total
