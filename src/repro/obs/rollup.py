"""Streaming rollups: bounded time-windowed rates over the sim clock.

A raw counter answers "how many, ever"; campaign governance needs "how
many, *lately*" — ingest rates per facility, decision throughput over
the last simulated hour — without keeping a timestamp per event.  A
:class:`WindowedCounter` holds a fixed ring of coarse time windows plus
one rolled-up total for everything that aged out, so memory is
``O(n_windows)`` no matter how long the campaign runs.

Windows are aligned to the *simulated* clock (``window index =
floor(t / window_s)``), never wall clock, so the rollup is part of the
determinism contract: same seed, same windows, same rates.  Rollups are
mergeable (:meth:`WindowedCounter.merge_from`), so per-shard rollups from
:mod:`repro.scale` workers combine into one global view.  The merged
:attr:`~WindowedCounter.total` is independent of chunking and merge
order; the ring is not, by design: a window older than the newest
retained one folds into the oldest retained window, so which windows
stay resolved depends on the order the shards arrive in.
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = ["WindowedCounter"]


class WindowedCounter:
    """A counter bucketed into a bounded ring of sim-time windows.

    Parameters
    ----------
    window_s:
        Width of one window in simulated seconds.
    n_windows:
        How many recent windows the ring retains.  Older windows fold
        into :attr:`rolled` (their total survives; their time structure
        does not) — the memory-bound guarantee.
    """

    __slots__ = ("window_s", "n_windows", "rolled", "_ring")

    def __init__(self, window_s: float = 60.0, n_windows: int = 60) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if n_windows < 1:
            raise ValueError(f"n_windows must be >= 1, got {n_windows}")
        self.window_s = float(window_s)
        self.n_windows = n_windows
        #: Total counted in windows that aged out of the ring.
        self.rolled = 0.0
        # (window_index, amount) pairs, oldest first, strictly increasing
        # window indices; at most n_windows entries.
        self._ring: deque[list[float]] = deque()

    # -- recording -----------------------------------------------------------

    def _window_index(self, t: float) -> int:
        if t < 0:
            raise ValueError(f"sim time must be >= 0, got {t}")
        return int(t // self.window_s)

    def inc(self, t: float, amount: float = 1.0) -> None:
        """Count ``amount`` at sim time ``t`` (non-decreasing per caller)."""
        self._add(self._window_index(t), amount)

    def _add(self, idx: int, amount: float) -> None:
        """Count ``amount`` into window ``idx``."""
        if self._ring and idx < self._ring[-1][0]:
            # Late event (e.g. merged shard skew): fold it into the
            # oldest retained window rather than corrupting ring order.
            target = self._ring[0]
            if idx >= target[0]:
                for win in self._ring:
                    if win[0] == idx:
                        win[1] += amount
                        return
                    if win[0] > idx:
                        break
                target[1] += amount
            else:
                self.rolled += amount
            return
        if self._ring and idx == self._ring[-1][0]:
            self._ring[-1][1] += amount
            return
        self._ring.append([idx, amount])
        while len(self._ring) > self.n_windows:
            _, aged = self._ring.popleft()
            self.rolled += aged

    # -- reading -------------------------------------------------------------

    @property
    def total(self) -> float:
        """Everything ever counted (ring plus rolled-up history)."""
        return self.rolled + sum(amount for _, amount in self._ring)

    def recent(self) -> float:
        """Total still resolved into windows (the ring's contents)."""
        return sum(amount for _, amount in self._ring)

    def rate(self) -> float:
        """Mean per-second rate over the retained window span.

        Spans from the oldest retained window's start to the newest
        window's end, so a burst followed by silence decays as empty
        windows (implicitly) enter the span.
        """
        if not self._ring:
            return 0.0
        span_windows = self._ring[-1][0] - self._ring[0][0] + 1
        return self.recent() / (span_windows * self.window_s)

    def summary(self) -> dict[str, float]:
        return {"total": self.total, "recent": self.recent(),
                "rate": self.rate(), "window_s": self.window_s,
                "windows_retained": float(len(self._ring))}

    # -- merging -------------------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Plain-data dump for cross-process merging (picklable)."""
        return {"window_s": self.window_s, "n_windows": self.n_windows,
                "rolled": self.rolled,
                "ring": [[int(idx), amount] for idx, amount in self._ring]}

    def merge_state(self, state: dict[str, Any]) -> "WindowedCounter":
        if state["window_s"] != self.window_s:
            raise ValueError(
                f"cannot merge rollups with different windows: "
                f"{state['window_s']} vs {self.window_s}")
        self.rolled += state["rolled"]
        # Replay the other ring window by window (by index: a round trip
        # through ``idx * window_s`` can land in the window below).  Late
        # windows fold per the rules above, so the ring, unlike the
        # total, depends on merge order.
        for idx, amount in state["ring"]:
            self._add(idx, amount)
        return self

    def merge_from(self, other: "WindowedCounter") -> "WindowedCounter":
        """Absorb another shard's rollup (windows align by index)."""
        return self.merge_state(other.state())
