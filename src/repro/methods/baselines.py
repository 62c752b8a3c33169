"""Baseline experiment-selection strategies.

All optimizers in :mod:`repro.methods` share the ask/tell protocol:

- ``ask() -> params`` proposes the next experiment;
- ``tell(params, objective)`` reports its (noisy) outcome;
- ``best`` returns the incumbent ``(objective, params)``.

The baselines here are what the paper's "traditional approaches" would do:
uniform random search and a fixed full-factorial grid.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from repro.labsci.landscapes import ContinuousDim, ParameterSpace


class AskTellOptimizer:
    """Shared bookkeeping for ask/tell strategies."""

    def __init__(self, space: ParameterSpace) -> None:
        self.space = space
        self.history: list[tuple[dict[str, Any], float]] = []

    def tell(self, params: Mapping[str, Any], objective: float) -> None:
        self.history.append((dict(params), float(objective)))

    @property
    def best(self) -> Optional[tuple[float, dict[str, Any]]]:
        if not self.history:
            return None
        params, value = max(self.history, key=lambda h: h[1])
        return value, params

    def best_trajectory(self) -> list[float]:
        """Running best objective after each observation."""
        out, cur = [], -np.inf
        for _, v in self.history:
            cur = max(cur, v)
            out.append(cur)
        return out

    def ask(self) -> dict[str, Any]:  # pragma: no cover - interface
        raise NotImplementedError


class RandomSearch(AskTellOptimizer):
    """Uniform random sampling of the space."""

    def __init__(self, space: ParameterSpace,
                 rng: np.random.Generator) -> None:
        super().__init__(space)
        self.rng = rng

    def ask(self) -> dict[str, Any]:
        return self.space.sample(self.rng)


class GridSearch(AskTellOptimizer):
    """Full-factorial grid, visited in deterministic order.

    ``points_per_dim`` grid levels per continuous dimension crossed with
    every discrete combination.  The grid wraps around when exhausted.
    """

    def __init__(self, space: ParameterSpace, points_per_dim: int = 5) -> None:
        super().__init__(space)
        if points_per_dim < 2:
            raise ValueError("points_per_dim must be >= 2")
        self.points_per_dim = points_per_dim
        self._grid = self._build()
        self._cursor = 0

    def _build(self) -> list[dict[str, Any]]:
        levels: dict[str, list[Any]] = {}
        for d in self.space.dims:
            if isinstance(d, ContinuousDim):
                levels[d.name] = list(
                    np.linspace(d.low, d.high, self.points_per_dim))
            else:
                levels[d.name] = list(d.choices)
        grid: list[dict[str, Any]] = [{}]
        for name, values in levels.items():
            grid = [dict(g, **{name: v}) for g in grid for v in values]
        return grid

    def ask(self) -> dict[str, Any]:
        params = self._grid[self._cursor % len(self._grid)]
        self._cursor += 1
        return dict(params)
