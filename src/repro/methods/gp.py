"""Gaussian-process regression from scratch (numpy/scipy).

A standard exact GP: Cholesky-factored covariance with observation noise,
posterior mean/std prediction, log marginal likelihood, and a small
grid-search hyperparameter fit — the "Gaussian processes for uncertainty
quantification" the paper's agents orchestrate (§3.3).

The surrogate is the hot path of every campaign loop (E5/E10/E12 run it
hundreds of times per seed), so it carries three fast paths, timed end
to end by aislebench's ``methods`` layer:

- :meth:`GaussianProcess.observe` appends one observation by a rank-1
  Cholesky update — O(n²) instead of the O(n³) refit;
- :meth:`GaussianProcess.fit_hyperparameters` computes each
  lengthscale's distance matrix and unit-amplitude covariance once and
  derives its amplitude candidates by exact rescaling;
- :meth:`GaussianProcess.predict` reads the prior variance from
  :meth:`~repro.methods.kernels._Stationary.diag` instead of building an
  m×m query covariance for its diagonal.

Batch contract (audited for the vectorized ask path): ``predict``,
``sample_posterior`` and the acquisitions in
:mod:`repro.methods.acquisition` operate on whole ``(m, d)`` query
matrices with numpy/scipy calls only — no per-candidate Python loops —
so ``BayesianOptimizer.ask`` stays vectorized end to end from candidate
generation to the acquisition argmax.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from repro.methods.kernels import RBF, _sqdist

#: The hyperparameter grid, scanned lengthscale-major in this order.
_GRID_LENGTHSCALES = (0.05, 0.1, 0.2, 0.4, 0.8)
_GRID_AMPLITUDES = (0.5, 1.0, 2.0)


class GaussianProcess:
    """Exact GP regression with a stationary kernel.

    Parameters
    ----------
    kernel:
        Kernel object (``RBF`` / ``Matern52``); default RBF.
    noise:
        Observation noise standard deviation.  Targets are standardized
        internally, which keeps the unit-scale kernel amplitude
        meaningful across objectives.

    Notes
    -----
    Fitting is :math:`O(n^3)`; AISLE campaigns observe hundreds of points,
    where exact GPs are the method of choice.  Appending observations via
    :meth:`observe` is :math:`O(n^2)` per point.
    """

    def __init__(self, kernel=None, noise: float = 1e-2) -> None:
        if noise <= 0:
            raise ValueError("noise must be > 0")
        self.kernel = kernel or RBF()
        self.noise = float(noise)
        self._X: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol = None
        self._y_mean = 0.0
        self._y_std = 1.0
        #: Factorization counters (read by tests).
        self.n_factorizations = 0
        self.n_incremental_updates = 0

    # -- fitting ------------------------------------------------------------------

    @property
    def n_observations(self) -> int:
        return 0 if self._X is None else self._X.shape[0]

    def _normalize(self, y: np.ndarray) -> np.ndarray:
        self._y_mean = float(np.mean(y))
        self._y_std = float(np.std(y)) or 1.0
        return (y - self._y_mean) / self._y_std

    @staticmethod
    def _training_data(X: np.ndarray,
                       y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``X`` as float rows and ``y`` as a flat float vector, checked."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        if X.shape[0] == 0:
            raise ValueError("need at least one observation")
        return X, y

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Condition the GP on observations (replaces prior data)."""
        X, y = self._training_data(X, y)
        z = self._normalize(y)
        K = self.kernel(X, X)
        K[np.diag_indices_from(K)] += self.noise ** 2
        self._chol = cho_factor(K, lower=True)
        self.n_factorizations += 1
        self._alpha = cho_solve(self._chol, z)
        self._X = X
        self._y = y
        self._z = z
        return self

    def observe(self, x: np.ndarray, y: float) -> "GaussianProcess":
        """Append one observation by a rank-1 Cholesky update — O(n²).

        Equivalent (to numerical precision) to refitting on the
        concatenated data with the current kernel, at O(n²) instead of
        O(n³): the factor gains one row via a triangular solve, and the
        weights are re-solved against the (re-standardized) targets.
        Falls back to a full :meth:`fit` on the first observation or if
        the update would lose positive-definiteness.
        """
        x = np.asarray(x, dtype=np.float64).reshape(1, -1)
        if self._X is None:
            return self.fit(x, np.asarray([y], dtype=np.float64))
        if x.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"x has {x.shape[1]} features but the GP was fit on "
                f"{self._X.shape[1]}")
        n = self._X.shape[0]
        k = self.kernel(self._X, x).ravel()
        kss = float(self.kernel.diag(x)[0]) + self.noise ** 2
        L = self._chol[0]
        w = solve_triangular(L, k, lower=True, check_finite=False)
        d2 = kss - float(w @ w)
        new_X = np.vstack([self._X, x])
        new_y = np.append(self._y, float(y))
        if d2 <= 1e-10 * kss:
            # Numerically degenerate append (e.g. duplicate point):
            # refactor from scratch rather than poison the factor.
            return self.fit(new_X, new_y)
        L_new = np.zeros((n + 1, n + 1))
        L_new[:n, :n] = L
        L_new[n, :n] = w
        L_new[n, n] = np.sqrt(d2)
        self._chol = (L_new, True)
        self.n_incremental_updates += 1
        self._X = new_X
        self._y = new_y
        self._z = self._normalize(new_y)
        self._alpha = cho_solve(self._chol, self._z, check_finite=False)
        return self

    def predict(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and std at query points."""
        if self._X is None:
            raise RuntimeError("fit() before predict()")
        Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
        Ks = self.kernel(Xs, self._X)
        mean = Ks @ self._alpha
        mean = mean * self._y_std + self._y_mean
        # One triangular solve: var = k(x,x) - ||L^{-1} k_*||², reading
        # the prior variance from the kernel diagonal (O(m)) instead of
        # materializing the m×m query covariance.
        w = solve_triangular(self._chol[0], Ks.T, lower=True,
                             check_finite=False)
        prior_var = self.kernel.diag(Xs)
        var = np.maximum(prior_var - np.sum(w * w, axis=0), 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def sample_posterior(self, Xs: np.ndarray, rng: np.random.Generator,
                         n_samples: int = 1) -> np.ndarray:
        """Draw joint posterior samples at query points (for Thompson)."""
        if self._X is None:
            raise RuntimeError("fit() before sampling")
        Xs = np.atleast_2d(np.asarray(Xs, dtype=np.float64))
        Ks = self.kernel(Xs, self._X)
        mean = (Ks @ self._alpha) * self._y_std + self._y_mean
        v = cho_solve(self._chol, Ks.T)
        cov = self.kernel(Xs, Xs) - Ks @ v
        cov = (cov + cov.T) / 2.0
        cov[np.diag_indices_from(cov)] += 1e-10
        # "eigh" tolerates the near-semidefinite covariances a conditioned
        # GP produces; cholesky would need much larger jitter.
        draws = rng.multivariate_normal(
            np.zeros(Xs.shape[0]), cov, size=n_samples, method="eigh")
        return mean[None, :] + draws * self._y_std

    # -- model selection ----------------------------------------------------------------

    def log_marginal_likelihood(self) -> float:
        """LML of the standardized targets under the current kernel."""
        if self._X is None or self._z is None:
            raise RuntimeError("fit() before computing the LML")
        L = self._chol[0]
        n = self._X.shape[0]
        return float(-0.5 * self._z @ self._alpha
                     - np.sum(np.log(np.diag(L)))
                     - 0.5 * n * np.log(2 * np.pi))

    def fit_hyperparameters(self, X: np.ndarray,
                            y: np.ndarray) -> "GaussianProcess":
        """Grid-search kernel hyperparameters by marginal likelihood.

        A deliberately small, deterministic grid: cheap enough to rerun at
        every campaign iteration, good enough to adapt to the landscape's
        scale (the guides' advice — measure, don't over-engineer).

        The grid shares work instead of rebuilding the kernel matrix per
        candidate: each lengthscale's distance matrix and unit-amplitude
        base are computed once and the amplitude candidates are exact
        rescalings — bit-identical to evaluating every candidate from
        scratch, so campaign decision sequences are unchanged.  The
        incumbent kernel is never mutated mid-search: a candidate whose
        factorization fails is skipped, and the GP state only changes
        once a winner exists.
        """
        X, y = self._training_data(X, y)
        z = self._normalize(y)
        n = X.shape[0]
        noise_var = self.noise ** 2
        const = -0.5 * n * np.log(2 * np.pi)
        diag_idx = np.diag_indices(n)

        def factor(K):
            """(lml, chol, alpha) for one candidate matrix, or None."""
            K[diag_idx] += noise_var
            try:
                chol = cho_factor(K, lower=True)
            except np.linalg.LinAlgError:
                return None
            self.n_factorizations += 1
            alpha = cho_solve(chol, z, check_finite=False)
            lml = float(-0.5 * z @ alpha
                        - np.sum(np.log(np.diag(chol[0]))) + const)
            return lml, chol, alpha

        best = None  # (lml, kernel, chol, alpha)
        for l in _GRID_LENGTHSCALES:
            base = self.kernel._base(_sqdist(X, X, l))
            for a in _GRID_AMPLITUDES:
                candidate = self.kernel.with_params(l, a)
                scored = factor(candidate.amplitude ** 2 * base)
                if scored is not None and (best is None
                                           or scored[0] > best[0]):
                    best = (scored[0], candidate, scored[1], scored[2])
        if best is None:
            # Every candidate failed to factor: leave the kernel exactly
            # as it was and let a plain fit surface the numerical problem.
            return self.fit(X, y)
        _, self.kernel, self._chol, self._alpha = best
        self._X, self._y, self._z = X, y, z
        return self
