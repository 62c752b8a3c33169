"""Acquisition functions for Bayesian optimization (maximization form).

All acquisitions are vectorized over the candidate axis: they take
``(n,)`` posterior mean/std arrays and return ``(n,)`` scores with no
per-candidate Python iteration — the contract the batched
``BayesianOptimizer.ask`` fast path relies on.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

_SQRT_2PI = np.sqrt(2 * np.pi)

#: Posterior-std floor for improvement-based acquisitions.  The GP
#: reports std == 0 exactly at observed points (and can numerically
#: round to 0 nearby); dividing by it would yield NaN/inf scores that
#: poison the acquisition argmax.  Flooring makes such points score
#: ~0 improvement instead, which is the correct limit.
STD_FLOOR = 1e-12


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal pdf, the expression ``scipy.stats.norm.pdf`` evaluates
    (``ndtr`` is its cdf), so scores match it bit for bit without importing
    ``scipy.stats``."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float,
                         xi: float = 0.01) -> np.ndarray:
    """EI over the incumbent ``best`` with exploration jitter ``xi``."""
    std = np.maximum(std, STD_FLOOR)
    z = (mean - best - xi) / std
    return (mean - best - xi) * ndtr(z) + std * _norm_pdf(z)


def upper_confidence_bound(mean: np.ndarray, std: np.ndarray,
                           beta: float = 2.0) -> np.ndarray:
    """GP-UCB: mean + beta * std."""
    return mean + beta * std


def thompson_sample(gp, X: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """One joint posterior draw over the candidate set."""
    return gp.sample_posterior(X, rng, n_samples=1)[0]


ACQUISITIONS = {
    "ei": "expected_improvement",
    "ucb": "upper_confidence_bound",
    "thompson": "thompson_sample",
}


def score_candidates(name: str, gp, X: np.ndarray, best: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Dispatch an acquisition by name over a candidate matrix."""
    if name == "thompson":
        return thompson_sample(gp, X, rng)
    mean, std = gp.predict(X)
    if name == "ei":
        return expected_improvement(mean, std, best)
    if name == "ucb":
        return upper_confidence_bound(mean, std)
    raise ValueError(f"unknown acquisition {name!r}; known: "
                     f"{sorted(ACQUISITIONS)}")
