"""Tests for the metrics registry: counters, histograms, StatsDict."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.obs.metrics import Histogram, render_name


# -- histogram --------------------------------------------------------------

def test_histogram_quantiles_bounded_relative_error():
    h = Histogram("lat")
    samples = [0.001 * i for i in range(1, 1001)]  # 1ms .. 1s uniform
    for x in samples:
        h.observe(x)
    assert h.count == 1000
    assert h.mean == pytest.approx(sum(samples) / 1000)
    # Geometric buckets: estimates within the growth factor of truth.
    for q, truth in [(0.50, 0.5), (0.95, 0.95), (0.99, 0.99)]:
        assert h.quantile(q) == pytest.approx(truth, rel=h.growth - 1)


def test_histogram_quantiles_clamped_to_observed_range():
    h = Histogram("lat")
    for x in (0.2, 0.3, 0.4):
        h.observe(x)
    assert h.quantile(0.0) >= 0.2
    assert h.quantile(1.0) <= 0.4
    pcts = h.percentiles()
    assert pcts["p50"] <= pcts["p95"] <= pcts["p99"]


def test_histogram_single_sample_every_quantile_is_it():
    h = Histogram("lat")
    h.observe(0.125)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert h.quantile(q) == pytest.approx(0.125)


def test_empty_histogram_is_zero():
    h = Histogram("lat")
    assert h.quantile(0.5) == 0.0
    assert h.mean == 0.0
    assert h.summary()["count"] == 0


def test_histogram_rejects_bad_config_and_quantile():
    with pytest.raises(ValueError):
        Histogram("x", lo=0.0)
    with pytest.raises(ValueError):
        Histogram("x", growth=1.0)
    with pytest.raises(ValueError):
        Histogram("x").quantile(1.5)


def test_tiny_observations_land_in_first_bucket():
    h = Histogram("lat", lo=1e-6)
    h.observe(0.0)
    h.observe(1e-9)
    assert h.count == 2
    assert h.quantile(0.5) == pytest.approx(0.0, abs=1e-6)


# -- registry ---------------------------------------------------------------

def test_registry_get_or_create_same_object():
    reg = MetricsRegistry()
    a = reg.counter("x", site="s0")
    b = reg.counter("x", site="s0")
    assert a is b
    assert reg.counter("x", site="s1") is not a
    assert reg.histogram("h") is reg.histogram("h")


def test_registry_snapshot_filters_by_site():
    reg = MetricsRegistry()
    reg.counter("c", site="s0").inc(3)
    reg.counter("c", site="s1").inc(5)
    reg.gauge("g", site="s0").set(7)
    reg.histogram("h", site="s1").observe(0.5)
    snap0 = reg.snapshot(site="s0")
    assert snap0["counters"] == {"c{site=s0}": 3}
    assert snap0["gauges"] == {"g{site=s0}": 7}
    assert snap0["histograms"] == {}
    full = reg.snapshot()
    assert set(full["counters"]) == {"c{site=s0}", "c{site=s1}"}


def test_render_name():
    assert render_name("n", ()) == "n"
    assert render_name("n", (("a", "1"), ("b", "2"))) == "n{a=1,b=2}"


# -- StatsDict --------------------------------------------------------------

def test_stats_dict_behaves_like_a_dict():
    reg = MetricsRegistry()
    stats = reg.stats("comp", {"sent": 0, "dropped": 0}, site="s0")
    stats["sent"] += 2
    stats["dropped"] = 1
    assert stats["sent"] == 2
    assert dict(stats) == {"sent": 2, "dropped": 1}
    assert stats == {"sent": 2, "dropped": 1}
    assert stats != {"sent": 0, "dropped": 1}
    assert len(stats) == 2 and set(stats) == {"sent", "dropped"}
    with pytest.raises(TypeError):
        del stats["sent"]


def test_stats_dict_values_visible_in_registry():
    reg = MetricsRegistry()
    stats = reg.stats("comp", {"sent": 0}, site="s0")
    stats["sent"] += 4
    assert reg.counter("comp.sent", site="s0").value == 4
    assert reg.snapshot(site="s0")["counters"]["comp.sent{site=s0}"] == 4


def test_stats_rebinding_keeps_existing_tallies():
    reg = MetricsRegistry()
    first = reg.stats("comp", {"sent": 0})
    first["sent"] += 3
    second = reg.stats("comp", {"sent": 0})  # same counters, not reset
    assert second["sent"] == 3


# -- mergeable registries (PR 7) --------------------------------------------


def test_counter_and_gauge_merge():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("x").inc(3)
    b.counter("x").inc(4)
    b.counter("only_b").inc()
    b.gauge("g").set(2.5)
    a.merge(b)
    assert a.counter("x").value == 7
    assert a.counter("only_b").value == 1
    assert a.gauge("g").value == 2.5


def test_histogram_merge_bucketwise():
    a, b = Histogram("h"), Histogram("h")
    for v in (0.1, 0.5, 2.0):
        a.observe(v)
    for v in (0.2, 8.0):
        b.observe(v)
    a.merge_from(b)
    assert a.count == 5
    assert a.total == pytest.approx(10.8)
    assert a.summary()["min"] == pytest.approx(0.1)
    assert a.summary()["max"] == pytest.approx(8.0)
    # Quantiles stay within sketch error of the pooled sample.
    assert a.quantile(1.0) >= 8.0 * 0.9


def test_histogram_merge_rejects_mismatched_buckets():
    a = Histogram("h", lo=1e-6, growth=1.6)
    b = Histogram("h", lo=1e-6, growth=2.0)
    with pytest.raises(ValueError):
        a.merge_from(b)


def test_histogram_bucket_state_roundtrip():
    a = Histogram("h")
    for v in (0.3, 0.9, 4.2):
        a.observe(v)
    state = a.bucket_state()
    b = Histogram("h", lo=state["lo"], growth=state["growth"])
    b.merge_bucket_state(state)
    assert b.bucket_state() == state


def test_registry_state_is_plain_data_and_mergeable():
    import json
    shard = MetricsRegistry()
    shard.counter("mesh.ingested", site="site-0").inc(5)
    shard.gauge("queue.depth").set(3)
    shard.histogram("latency", site="site-0").observe(0.25)
    state = shard.state()
    json.dumps(state)  # picklable/serializable plain data

    merged = MetricsRegistry()
    merged.merge_state(state)
    merged.merge_state(state)  # a second identical shard
    assert merged.counter("mesh.ingested", site="site-0").value == 10
    assert merged.gauge("queue.depth").value == 6
    assert merged.histogram("latency", site="site-0").count == 2


def test_registry_merge_keeps_labels_distinct():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("served", site="site-0").inc(1)
    b.counter("served", site="site-1").inc(2)
    a.merge(b)
    assert a.counter("served", site="site-0").value == 1
    assert a.counter("served", site="site-1").value == 2
    snap = a.snapshot(site="site-1")
    assert list(snap["counters"].values()) == [2]


# -- merge oracle: chunk- and order-independence -------------------------------

_NAMES = ("m.alpha", "m.beta")
_LABEL_SETS = ({}, {"site": "site-0"}, {"site": "site-1", "tenant": "t"})

# Values on a bounded dyadic grid (k / 2**s, |k| <= 1024, s <= 4).  A
# histogram's ``total`` and a gauge's or counter's value are float sums,
# and a merge adds the chunks' sums in merge order, not the stream's
# order.  Every partial sum of at most 80 grid values is a multiple of
# 1/16 below 2**17, so each addition is exact and the order cannot show;
# with arbitrary floats the last bit could differ between two correct
# merges.
_MAGNITUDE = st.builds(lambda k, s: k / 2 ** s,
                       st.integers(0, 1024), st.integers(0, 4))
_OP = st.one_of(
    st.tuples(st.just("counter"), st.sampled_from(_NAMES),
              st.integers(0, 2), _MAGNITUDE),
    st.tuples(st.just("gauge"), st.sampled_from(_NAMES), st.integers(0, 2),
              st.builds(lambda m, neg: -m if neg else m, _MAGNITUDE,
                        st.booleans())),
    st.tuples(st.just("histogram"), st.sampled_from(_NAMES),
              st.integers(0, 2), _MAGNITUDE))


def _apply(registry, op):
    kind, name, label_set, value = op
    labels = _LABEL_SETS[label_set]
    if kind == "counter":
        registry.counter(name, **labels).inc(value)
    elif kind == "gauge":
        registry.gauge(name, **labels).inc(value)
    else:
        registry.histogram(name, **labels).observe(value)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_OP, max_size=80), data=st.data())
def test_property_registry_merge_is_chunk_and_order_independent(ops, data):
    """Split a stream into 1-5 chunks, one registry each, and merge them
    into a fresh registry in any order, each through ``merge_state`` or
    ``merge``: the state equals that of one registry fed the stream."""
    whole = MetricsRegistry()
    for op in ops:
        _apply(whole, op)

    n_chunks = data.draw(st.integers(1, 5), label="chunks")
    cuts = sorted(data.draw(st.lists(st.integers(0, len(ops)),
                                     min_size=n_chunks - 1,
                                     max_size=n_chunks - 1), label="cuts"))
    bounds = [0, *cuts, len(ops)]
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        part = MetricsRegistry()
        for op in ops[lo:hi]:
            _apply(part, op)
        parts.append(part)

    order = data.draw(st.permutations(range(n_chunks)), label="order")
    via_state = data.draw(st.lists(st.booleans(), min_size=n_chunks,
                                   max_size=n_chunks), label="via_state")
    merged = MetricsRegistry()
    for i in order:
        if via_state[i]:
            merged.merge_state(parts[i].state())
        else:
            merged.merge(parts[i])
    assert merged.state() == whole.state()
