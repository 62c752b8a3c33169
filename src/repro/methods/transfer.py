"""Cross-laboratory transfer learning (§3.3, milestone M9 substrate).

"Active transfer learning approaches enabling knowledge sharing between
laboratories."  The obstacle is the systematic calibration offset between
sites (modelled in :class:`repro.labsci.perovskite.PerovskiteLandscape`):
raw foreign observations are biased.  The :class:`TransferAdapter`
estimates a per-source affine correction from co-observed (or nearby)
conditions and rescales donations before feeding them to the local
optimizer.

Offset estimation is the adapter's hot path (federated campaigns call it
once per sharing round per source), and both histories only grow.  Each
source keeps its boolean (local row, donation) neighbour matrix and each
donation's delta; a call computes distances only for the new local rows
and the new donations, and re-derives a delta only for a new donation or
one whose neighbour set grew.  Every distance is the same last-axis
reduction as a from-scratch matrix, so the offset is bit-identical to
recomputing everything.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from repro.labsci.landscapes import ParameterSpace


class _Donations:
    """Per-source donation store with an incrementally-built matrix.

    ``near`` is the cached ``(local rows seen, donations seen)`` neighbour
    matrix and ``deltas`` each seen donation's ``mean(local) - value``
    over its neighbours (``None`` while it has none).
    """

    __slots__ = ("values", "params", "_rows", "_X", "near", "deltas")

    def __init__(self) -> None:
        self.values: list[float] = []
        self.params: list[dict[str, Any]] = []
        self._rows: list[np.ndarray] = []
        self._X: Optional[np.ndarray] = None
        self.near = np.zeros((0, 0), dtype=bool)
        self.deltas: list[Optional[float]] = []

    def append(self, x: np.ndarray, value: float,
               params: dict[str, Any]) -> None:
        self._rows.append(x)
        self.values.append(value)
        self.params.append(params)
        self._X = None

    @property
    def X(self) -> np.ndarray:
        if self._X is None:
            self._X = np.array(self._rows)
        return self._X

    def __len__(self) -> int:
        return len(self.values)


class TransferAdapter:
    """Bias-corrected observation sharing into one site's optimizer.

    Parameters
    ----------
    space:
        Shared parameter space.
    min_pairs:
        Paired observations needed before a correction is trusted; below
        this, donations pass through with a discount weight instead.
    neighbor_scale:
        Normalized-distance radius within which two observations count as
        "the same condition" for offset estimation.
    """

    def __init__(self, space: ParameterSpace, min_pairs: int = 3,
                 neighbor_scale: float = 0.15) -> None:
        self.space = space
        self.min_pairs = min_pairs
        self.neighbor_scale = neighbor_scale
        self._local_rows: list[np.ndarray] = []
        self._local_values: list[float] = []
        self._local_X: Optional[np.ndarray] = None
        self._local_y: Optional[np.ndarray] = None
        self._foreign: dict[str, _Donations] = {}
        self.stats = {"received": 0, "corrected": 0, "passthrough": 0}

    # -- feeding the adapter ---------------------------------------------------------

    def observe_local(self, params: Mapping[str, Any], value: float) -> None:
        self._local_rows.append(self.space.encode(params))
        self._local_values.append(float(value))
        self._local_X = None
        self._local_y = None

    def receive(self, source: str, params: Mapping[str, Any],
                value: float) -> None:
        """Record a donation from another site (raw, uncorrected)."""
        self.stats["received"] += 1
        store = self._foreign.get(source)
        if store is None:
            store = self._foreign[source] = _Donations()
        store.append(self.space.encode(params), float(value), dict(params))

    def _local_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._local_X is None:
            self._local_X = np.array(self._local_rows)
            self._local_y = np.array(self._local_values)
        return self._local_X, self._local_y

    # -- offset estimation ---------------------------------------------------------------

    def _near(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """``(len(A), len(B))`` mask of pairs within ``neighbor_scale``."""
        return (np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
                < self.neighbor_scale)

    def _estimate_offset(self, source: str) -> Optional[float]:
        """Median over donations of (mean of local neighbours - value)."""
        donations = self._foreign.get(source)
        if not donations or not self._local_rows:
            return None
        local_X, local_y = self._local_arrays()
        n_old, m_old = donations.near.shape
        n, m = len(local_X), len(donations)
        if (n, m) != (n_old, m_old):
            # Extend the cached block: old rows x new donations, then new
            # rows x all donations.  Each entry is the same per-pair
            # reduction as the full matrix, so the block is bit-identical.
            X = donations.X
            near = np.empty((n, m), dtype=bool)
            near[:n_old, :m_old] = donations.near
            if n_old and m > m_old:
                near[:n_old, m_old:] = self._near(local_X[:n_old], X[m_old:])
            if n > n_old:
                near[n_old:] = self._near(local_X[n_old:], X)
            donations.near = near
            # Re-derive the new donations' deltas and those of old ones
            # that gained a neighbour; np.mean keeps its pairwise sum.
            stale = near[n_old:].any(axis=0)
            stale[m_old:] = True
            deltas = donations.deltas
            deltas.extend([None] * (m - m_old))
            for j in np.flatnonzero(stale).tolist():
                mask = near[:, j]
                if mask.any():
                    deltas[j] = (float(np.mean(local_y[mask]))
                                 - donations.values[j])
        present = [d for d in donations.deltas if d is not None]
        if len(present) < self.min_pairs:
            return None
        return float(np.median(present))

    # -- the output: corrected donations ----------------------------------------------------

    def corrected_donations(self, source: str, start: int = 0
                            ) -> list[tuple[dict[str, Any], float]]:
        """Donations from ``source``, from the ``start``-th on, ready for
        ``optimizer.absorb``.

        With a trusted offset estimate the correction is applied exactly;
        otherwise values pass through unchanged (the bandit/GP treats
        them as weak evidence — better than nothing, per M9's goal of
        reducing required experiments).  The offset is estimated from
        every donation, and ``stats`` counts only the ones returned, so
        a caller that asks for each new tail counts each donation once.
        """
        donations = self._foreign.get(source)
        if donations is None:
            return []
        offset = self._estimate_offset(source)
        tail = zip(donations.values[start:], donations.params[start:])
        if offset is None:
            out = [(params, value) for value, params in tail]
            self.stats["passthrough"] += len(out)
        else:
            out = [(params, value + offset) for value, params in tail]
            self.stats["corrected"] += len(out)
        return out

    def all_corrected(self) -> list[tuple[dict[str, Any], float]]:
        out = []
        for source in sorted(self._foreign):
            out.extend(self.corrected_donations(source))
        return out

    def offset_estimates(self) -> dict[str, Optional[float]]:
        return {s: self._estimate_offset(s) for s in sorted(self._foreign)}
