"""Bayesian optimization over mixed parameter spaces.

The workhorse sample-efficient optimizer: a GP surrogate on the space's
encoded vectors (normalized continuous + one-hot discrete) and an
acquisition maximized over a random candidate pool.  For spaces with large
discrete structure, prefer
:class:`~repro.methods.nested.NestedBayesianOptimizer`.

The surrogate is kept in sync *incrementally*: new observations (local
tells and donated ``absorb``-ed points alike) reach the GP through
:meth:`~repro.methods.gp.GaussianProcess.observe` — an O(n²) rank-1
update — instead of an O(n³) refit per ask.  A hyperparameter grid refit
every ``REFIT_EVERY`` asks rebuilds the factorization from scratch.

The ask path is fully batched: candidate pools come from
:meth:`ParameterSpace.sample_batch` as a raw ``(n, d)`` matrix, incumbent
jitter is one vectorized normal draw, and encoding goes through
:meth:`ParameterSpace.encode_raw_batch` — zero per-candidate Python
iteration between candidate generation and the acquisition argmax.
aislebench times it (``methods.ask_ms_p50``), a verified
:class:`~repro.scale.WorldRunner` run replays it for determinism
(``tests/scale/test_runner.py``), and that the batched sampler draws the
old scalar sampler's distribution is a tier-1 test against a scalar
``legacy_sample`` helper (``tests/test_properties.py``).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.labsci.landscapes import ContinuousDim, ParameterSpace
from repro.methods.acquisition import score_candidates
from repro.methods.baselines import AskTellOptimizer
from repro.methods.gp import GaussianProcess
from repro.methods.kernels import Matern52


class BayesianOptimizer(AskTellOptimizer):
    """GP-based ask/tell optimizer.

    Parameters
    ----------
    space:
        The mixed parameter space.
    rng:
        Random stream (candidate pools + Thompson draws).
    acquisition:
        "ei" (default), "ucb", or "thompson".
    n_init:
        Random exploration before the surrogate switches on.
    n_candidates:
        Candidate pool size per ask.
    """

    #: Hyperparameter re-fit cadence in asks (grid LML search is not free).
    REFIT_EVERY = 10

    def __init__(self, space: ParameterSpace, rng: np.random.Generator, *,
                 acquisition: str = "ei", n_init: int = 8,
                 n_candidates: int = 512, noise: float = 0.02) -> None:
        super().__init__(space)
        self.rng = rng
        self.acquisition = acquisition
        self.n_init = n_init
        self.n_candidates = n_candidates
        self.gp = GaussianProcess(kernel=Matern52(lengthscale=0.3),
                                  noise=noise)
        self._since_refit = 0
        #: Extra observations donated by other sites (transfer learning).
        self._external: list[tuple[dict[str, Any], float]] = []
        # Continuous-dim geometry for the batched incumbent jitter.
        self._cont_cols = np.asarray(
            [j for j, d in enumerate(space.dims)
             if isinstance(d, ContinuousDim)], dtype=np.intp)
        self._cont_lows = np.asarray([d.low for d in space.continuous])
        self._cont_highs = np.asarray([d.high for d in space.continuous])
        # Observations in arrival order (tells and absorbs interleaved):
        # the GP is conditioned on this sequence, with _n_synced marking
        # how many of them it has already seen.
        self._arrivals: list[tuple[dict[str, Any], float]] = []
        self._n_synced = 0

    # -- knowledge integration hooks -----------------------------------------------

    def tell(self, params: Mapping[str, Any], objective: float) -> None:
        super().tell(params, objective)
        self._arrivals.append((dict(params), float(objective)))

    def absorb(self, params: Mapping[str, Any], objective: float) -> None:
        """Add an observation from elsewhere (does not count as ours)."""
        self._external.append((dict(params), float(objective)))
        self._arrivals.append((dict(params), float(objective)))

    def _all_observations(self) -> list[tuple[dict[str, Any], float]]:
        return self.history + self._external

    # -- surrogate maintenance ---------------------------------------------------------

    def _encode_arrivals(self) -> tuple[np.ndarray, np.ndarray]:
        X = self.space.encode_batch([p for p, _ in self._arrivals])
        y = np.array([v for _, v in self._arrivals])
        return X, y

    def _sync_surrogate(self) -> None:
        """Bring the GP up to date with the newest observations.

        Every ``REFIT_EVERY`` asks the hyperparameter grid is searched
        again on all observations; between those refits, new points
        stream in as rank-1 updates.
        """
        self._since_refit += 1
        if self._since_refit >= self.REFIT_EVERY or self.gp.n_observations == 0:
            X, y = self._encode_arrivals()
            self.gp.fit_hyperparameters(X, y)
            self._n_synced = len(self._arrivals)
            self._since_refit = 0
            return
        pending = self._arrivals[self._n_synced:]
        X_new = self.space.encode_batch([p for p, _ in pending])
        for row, (_, value) in zip(X_new, pending):
            self.gp.observe(row, value)
        self._n_synced = len(self._arrivals)

    # -- ask/tell ----------------------------------------------------------------------

    #: Incumbent-jitter schedule: 8 copies at each relative scale.
    _JITTER_SCALES = (0.02, 0.05, 0.1)
    _JITTER_COPIES = 8

    def ask(self) -> dict[str, Any]:
        observations = self._all_observations()
        if len(observations) < self.n_init:
            return self.space.sample(self.rng)
        self._sync_surrogate()
        y_best = max(v for _, v in observations)
        raw = self.space.sample_batch(self.rng, self.n_candidates)
        # Local exploitation: jitter the incumbent into the pool.
        if self.best is not None:
            _, inc = self.best
            raw = np.concatenate([raw, self._perturb_batch(inc)], axis=0)
        Xc = self.space.encode_raw_batch(raw)
        scores = score_candidates(self.acquisition, self.gp, Xc,
                                  best=float(y_best), rng=self.rng)
        return self.space.decode_batch(raw[int(np.argmax(scores))])[0]

    def _perturb_batch(self, params: Mapping[str, Any]) -> np.ndarray:
        """All jittered incumbent copies as raw rows, from one normal draw."""
        scales = np.repeat(np.asarray(self._JITTER_SCALES),
                           self._JITTER_COPIES)
        out = np.tile(self.space.raw_point(params), (scales.size, 1))
        if self._cont_cols.size:
            spans = self._cont_highs - self._cont_lows
            step = self.rng.standard_normal((scales.size,
                                             self._cont_cols.size))
            out[:, self._cont_cols] = np.clip(
                out[:, self._cont_cols] + step * (spans * scales[:, None]),
                self._cont_lows, self._cont_highs)
        return out
