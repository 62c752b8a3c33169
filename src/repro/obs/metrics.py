"""Counters, gauges, and streaming histograms for every AISLE layer.

A single :class:`MetricsRegistry` replaces the ad-hoc per-component
``stats`` dicts that used to live in the message bus, the WAN transport,
the fault-tolerance stack, and the HAL.  Components keep their public
``.stats`` mapping API via :class:`StatsDict`, a dict-compatible view
whose values live in registry counters — so one registry sees the whole
federation and the benchmarks can snapshot it per site.

Histograms are *streaming*: fixed geometric buckets give p50/p95/p99
estimates (bounded relative error) without storing samples, so a
million-transfer campaign costs O(buckets), not O(samples).
"""

from __future__ import annotations

import math
from collections.abc import MutableMapping
from typing import Any, Callable, Hashable, Iterator, Optional

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically-increasing (by convention) numeric metric."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        """Shard-merge: tallies add."""
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {render_name(self.name, self.labels)}={self.value}>"


class Gauge:
    """A point-in-time numeric metric (queue depth, backlog, ...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def merge_from(self, other: "Gauge") -> None:
        """Shard-merge: gauges *sum* — per-shard queue depths, backlogs,
        and ring sizes aggregate into the federation-wide quantity."""
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {render_name(self.name, self.labels)}={self.value}>"


class Histogram:
    """Streaming histogram with geometric buckets.

    Bucket ``i >= 1`` covers ``(lo * growth**(i-1), lo * growth**i]``;
    bucket 0 covers ``[0, lo]``.  Quantiles interpolate inside the
    landing bucket and clamp to the observed min/max, so the estimate's
    relative error is bounded by ``growth - 1`` (default ~15%, plenty for
    the order-of-magnitude latency claims in E1/E4).

    Parameters
    ----------
    lo:
        Upper edge of the first bucket; observations at or below land
        there.  Default 1 microsecond — below any simulated latency.
    growth:
        Geometric ratio between consecutive bucket edges.
    """

    __slots__ = ("name", "labels", "lo", "growth", "_log_growth", "_counts",
                 "count", "total", "_min", "_max")

    def __init__(self, name: str, labels: LabelKey = (), *,
                 lo: float = 1e-6, growth: float = 1.15) -> None:
        if lo <= 0 or growth <= 1:
            raise ValueError("need lo > 0 and growth > 1")
        self.name = name
        self.labels = labels
        self.lo = lo
        self.growth = growth
        self._log_growth = math.log(growth)
        self._counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, x: float) -> None:
        x = float(x)
        if x <= self.lo:
            idx = 0
        else:
            idx = 1 + int(math.log(x / self.lo) / self._log_growth)
        self._counts[idx] = self._counts.get(idx, 0) + 1
        self.count += 1
        self.total += x
        self._min = min(self._min, x)
        self._max = max(self._max, x)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) of observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        cum = 0
        for idx in sorted(self._counts):
            n = self._counts[idx]
            if cum + n >= rank:
                lower = 0.0 if idx == 0 else self.lo * self.growth ** (idx - 1)
                upper = self.lo * self.growth ** idx
                frac = (rank - cum) / n
                est = lower + (upper - lower) * frac
                return min(max(est, self._min), self._max)
            cum += n
        return self._max

    def merge_from(self, other: "Histogram") -> None:
        """Shard-merge: bucket-wise addition (a mergeable sketch).

        Geometric buckets make the sketch closed under merge — two
        shards' histograms with the same ``(lo, growth)`` combine
        exactly, with the same bounded relative error as one histogram
        observing both streams.
        """
        if (self.lo, self.growth) != (other.lo, other.growth):
            raise ValueError(
                f"cannot merge histograms with different bucket geometry: "
                f"(lo={self.lo}, growth={self.growth}) vs "
                f"(lo={other.lo}, growth={other.growth})")
        for idx, n in other._counts.items():
            self._counts[idx] = self._counts.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def bucket_state(self) -> dict[str, Any]:
        """Plain-data sketch state (picklable; see ``Registry.state``)."""
        return {"lo": self.lo, "growth": self.growth,
                "counts": {int(i): int(self._counts[i])
                           for i in sorted(self._counts)},
                "count": self.count, "total": self.total,
                "min": self._min, "max": self._max}

    def merge_bucket_state(self, state: dict[str, Any]) -> None:
        """Merge a :meth:`bucket_state` dump (cross-process shard path)."""
        if (self.lo, self.growth) != (state["lo"], state["growth"]):
            raise ValueError(
                "cannot merge histogram state with different geometry")
        for idx, n in state["counts"].items():
            idx = int(idx)
            self._counts[idx] = self._counts.get(idx, 0) + int(n)
        self.count += state["count"]
        self.total += state["total"]
        self._min = min(self._min, state["min"])
        self._max = max(self._max, state["max"])

    def percentiles(self) -> dict[str, float]:
        """The p50/p95/p99 trio the milestone claims are stated in."""
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    def summary(self) -> dict[str, float]:
        out = {"count": self.count, "mean": self.mean,
               "min": self._min if self.count else 0.0,
               "max": self._max if self.count else 0.0}
        out.update(self.percentiles())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Histogram {render_name(self.name, self.labels)} "
                f"n={self.count}>")


def render_name(name: str, labels: LabelKey) -> str:
    """Prometheus-ish rendering: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class StatsDict(MutableMapping):
    """A component's ``stats`` mapping, backed by registry counters.

    Behaves exactly like the plain dicts it replaces — ``stats["x"] += 1``,
    ``dict(stats)``, equality against dicts — while every value lives in a
    shared :class:`MetricsRegistry`, visible to snapshots and benchmarks.
    """

    __slots__ = ("_counters",)

    def __init__(self, counters: dict[str, Counter]) -> None:
        self._counters = counters

    def counter_for(self, key: str) -> Counter:
        """The registry counter behind ``key``, for a hot path to bind."""
        return self._counters[key]

    def __getitem__(self, key: str) -> float:
        return self._counters[key].value

    def __setitem__(self, key: str, value: float) -> None:
        self._counters[key].value = value

    def __delitem__(self, key: str) -> None:
        raise TypeError("stats keys are fixed at construction")

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (dict, StatsDict)):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other: Any) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StatsDict({dict(self)!r})"


class MetricsRegistry:
    """Get-or-create registry of every metric in one simulated world.

    Metrics are keyed by ``(name, sorted labels)``; asking twice returns
    the same object, so components wired to a shared registry aggregate
    naturally.  Components built without one create a private registry —
    their ``.stats`` API is unchanged either way.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._bound: dict[Hashable, Any] = {}

    # -- factories ---------------------------------------------------------

    def bound(self, key: Hashable, bind: Callable[[], Any]) -> Any:
        """``bind()``'s handles, built on the first call with ``key``.

        A caller that updates the same metrics on every call looks them
        up once per registry and key, and reuses the handles after that.
        ``bind`` creates the metrics the first lookup would create, so the
        registry ends up holding the same metrics either way.
        """
        handles = self._bound.get(key)
        if handles is None:
            handles = self._bound[key] = bind()
        return handles

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(name, key[1])
        return c

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(name, key[1])
        return g

    def histogram(self, name: str, *, lo: float = 1e-6,
                  growth: float = 1.15, **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(name, key[1], lo=lo,
                                                  growth=growth)
        return h

    def stats(self, prefix: str, initial: dict[str, float],
              **labels: Any) -> StatsDict:
        """A :class:`StatsDict` over counters ``prefix.<key>``.

        ``initial`` gives the key set and starting values (fresh counters
        only — re-binding to existing counters keeps their tallies).
        """
        counters = {}
        for key, value in initial.items():
            full = f"{prefix}.{key}"
            lk = (full, _label_key(labels))
            fresh = lk not in self._counters
            c = self.counter(full, **labels)
            if fresh:
                c.value = value
            counters[key] = c
        return StatsDict(counters)

    # -- introspection -----------------------------------------------------

    def _selected(self, metrics: dict, site: Optional[str]):
        for (name, labels), metric in sorted(metrics.items()):
            if site is not None and ("site", site) not in labels:
                continue
            yield render_name(name, labels), metric

    def snapshot(self, site: Optional[str] = None) -> dict[str, Any]:
        """Plain-data dump of every metric (optionally one site's).

        Deterministically ordered, JSON-serializable; the shape the
        benchmarks and :func:`repro.obs.export.metrics_snapshot` consume.
        """
        return {
            "counters": {n: c.value
                         for n, c in self._selected(self._counters, site)},
            "gauges": {n: g.value
                       for n, g in self._selected(self._gauges, site)},
            "histograms": {n: h.summary()
                           for n, h in self._selected(self._histograms, site)},
        }

    # -- shard merging -----------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Lossless plain-data dump: picklable and mergeable.

        Unlike :meth:`snapshot` (which summarizes histograms), ``state``
        carries full bucket sketches, so a worker process can ship its
        per-shard registry back and :meth:`merge_state` reassembles the
        global view exactly — the one reporting path
        :mod:`repro.scale` workers and :mod:`repro.service` tenants
        share.
        """
        return {
            "counters": [[name, [list(kv) for kv in labels], c.value]
                         for (name, labels), c in
                         sorted(self._counters.items())],
            "gauges": [[name, [list(kv) for kv in labels], g.value]
                       for (name, labels), g in sorted(self._gauges.items())],
            "histograms": [[name, [list(kv) for kv in labels],
                            h.bucket_state()]
                           for (name, labels), h in
                           sorted(self._histograms.items())],
        }

    def merge_state(self, state: dict[str, Any]) -> "MetricsRegistry":
        """Merge a :meth:`state` dump into this registry (in place)."""
        for name, labels, value in state.get("counters", ()):
            self.counter(name, **dict(labels)).inc(value)
        for name, labels, value in state.get("gauges", ()):
            self.gauge(name, **dict(labels)).inc(value)
        for name, labels, bucket_state in state.get("histograms", ()):
            h = self.histogram(name, lo=bucket_state["lo"],
                               growth=bucket_state["growth"], **dict(labels))
            h.merge_bucket_state(bucket_state)
        return self

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Merge another (per-shard) registry into this one, in place.

        Counters and gauges add; histograms merge bucket-wise.  Metric
        identity is ``(name, labels)``, so per-site labelled metrics
        land side by side while unlabelled ones aggregate.
        """
        return self.merge_state(other.state())
