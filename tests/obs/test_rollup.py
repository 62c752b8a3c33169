"""Tests for streaming windowed rollups."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import WindowedCounter


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        WindowedCounter(window_s=0)
    with pytest.raises(ValueError):
        WindowedCounter(n_windows=0)
    with pytest.raises(ValueError):
        WindowedCounter().inc(-1.0)


def test_counts_within_one_window():
    wc = WindowedCounter(window_s=10.0, n_windows=4)
    wc.inc(0.0)
    wc.inc(3.0)
    wc.inc(9.9, amount=2.0)
    assert wc.total == 4.0
    assert wc.recent() == 4.0
    assert wc.rate() == pytest.approx(0.4)


def test_ring_is_bounded_and_rolls_up():
    wc = WindowedCounter(window_s=1.0, n_windows=3)
    for t in range(10):  # windows 0..9, ring keeps the last 3
        wc.inc(float(t))
    assert wc.total == 10.0
    assert wc.recent() == 3.0
    assert wc.rolled == 7.0
    assert wc.summary()["windows_retained"] == 3.0


def test_rate_decays_over_idle_gap():
    wc = WindowedCounter(window_s=1.0, n_windows=10)
    wc.inc(0.0, amount=8.0)
    assert wc.rate() == pytest.approx(8.0)
    wc.inc(7.0, amount=0.0)  # an empty late window stretches the span
    assert wc.rate() == pytest.approx(1.0)


def test_late_event_folds_into_retained_window():
    wc = WindowedCounter(window_s=1.0, n_windows=4)
    wc.inc(0.0)
    wc.inc(5.0)
    wc.inc(3.0, amount=2.0)  # late but still inside the ring span
    assert wc.total == 4.0
    assert wc.recent() == 4.0


def test_too_late_event_goes_to_rollup():
    wc = WindowedCounter(window_s=1.0, n_windows=2)
    for t in range(6):
        wc.inc(float(t))
    wc.inc(0.0, amount=5.0)  # far older than the ring
    assert wc.rolled == 4.0 + 5.0
    assert wc.recent() == 2.0


def test_merge_from_aligned_shards():
    a = WindowedCounter(window_s=10.0, n_windows=8)
    b = WindowedCounter(window_s=10.0, n_windows=8)
    for t in (1.0, 12.0, 25.0):
        a.inc(t)
    for t in (5.0, 14.0, 71.0):
        b.inc(t, amount=2.0)
    a.merge_from(b)
    assert a.total == 9.0
    assert a.recent() == 9.0


def test_merge_rejects_mismatched_windows():
    a = WindowedCounter(window_s=10.0)
    b = WindowedCounter(window_s=60.0)
    with pytest.raises(ValueError):
        a.merge_from(b)


def test_state_is_plain_data():
    import json
    wc = WindowedCounter(window_s=2.0, n_windows=3)
    for t in range(9):
        wc.inc(float(t))
    state = wc.state()
    json.dumps(state)
    fresh = WindowedCounter(window_s=2.0, n_windows=3)
    fresh.merge_state(state)
    assert fresh.total == wc.total
    assert fresh.recent() == wc.recent()


def test_merge_keeps_windows_of_non_dyadic_width():
    # idx * 0.1 // 0.1 is idx - 1 for idx 5, 9 and 13: a merge that
    # replayed windows through their start times filed them one low.
    counter = WindowedCounter(0.1, 8)
    for t in (0.05, 0.52, 0.95, 1.31):
        counter.inc(t)
    assert [idx for idx, _ in counter.state()["ring"]] == [0, 5, 9, 13]
    merged = WindowedCounter(0.1, 8).merge_from(counter)
    assert merged.state() == counter.state()


# -- merge oracle ---------------------------------------------------------------
#
# Only the total is independent of how the events are sharded and in
# which order the shards merge.  The ring is not, by design: a window
# older than the newest retained one folds into the oldest retained
# window, so which windows stay resolved depends on merge order.  The
# oracle pins the total, the ring's shape after every merge, and that a
# merge into an empty counter is an exact copy.  Amounts are integers,
# so every sum is exact in any order.

_WIDTHS = (0.1, 0.3, 7.7, 1.0, 0.25, 60.0)
_EVENTS = st.lists(st.tuples(st.floats(0.0, 500.0), st.integers(0, 9)),
                   max_size=60)


def _fed(window_s, n_windows, events):
    counter = WindowedCounter(window_s, n_windows)
    for t, amount in sorted(events):  # each shard counts in sim-time order
        counter.inc(t, float(amount))
    return counter


def _assert_ring_shape(counter):
    indices = [idx for idx, _ in counter.state()["ring"]]
    assert len(indices) <= counter.n_windows
    assert all(a < b for a, b in zip(indices, indices[1:]))


@settings(max_examples=200, deadline=None)
@given(window_s=st.sampled_from(_WIDTHS), n_windows=st.integers(1, 8),
       events=_EVENTS, data=st.data())
def test_property_rollup_merge_keeps_total_and_ring_shape(
        window_s, n_windows, events, data):
    """Shard the events over 1-5 counters and merge them into a fresh
    one in any order: the total is the sum of all amounts, and after each
    merge the ring holds at most ``n_windows`` strictly increasing
    window indices."""
    n_chunks = data.draw(st.integers(1, 5), label="chunks")
    shard_of = data.draw(st.lists(st.integers(0, n_chunks - 1),
                                  min_size=len(events),
                                  max_size=len(events)), label="shard_of")
    shards = [_fed(window_s, n_windows,
                   [e for e, s in zip(events, shard_of) if s == i])
              for i in range(n_chunks)]
    order = data.draw(st.permutations(range(n_chunks)), label="order")
    merged = WindowedCounter(window_s, n_windows)
    for i in order:
        merged.merge_from(shards[i])
        _assert_ring_shape(merged)
    assert merged.total == sum(amount for _, amount in events)


@settings(max_examples=200, deadline=None)
@given(window_s=st.sampled_from(_WIDTHS), n_windows=st.integers(1, 8),
       events=_EVENTS)
def test_property_rollup_merge_into_empty_is_identity(
        window_s, n_windows, events):
    """Merging one counter into an empty one reproduces its state."""
    counter = _fed(window_s, n_windows, events)
    merged = WindowedCounter(window_s, n_windows).merge_from(counter)
    assert merged.state() == counter.state()
