"""Covariance kernels for Gaussian-process regression.

Both kernels are *stationary*: covariance depends only on the pairwise
distance between inputs.  That buys two fast paths the surrogate stack
leans on:

- :meth:`_Stationary.diag` — the self-covariance of any point is just
  ``amplitude**2``, so callers that only need a diagonal (``predict``'s
  prior variance) never build an m×m matrix;
- :meth:`_Stationary.from_unit_sqdist` — the kernel matrix for any
  lengthscale is an elementwise function of the *unit-lengthscale*
  squared-distance matrix, so a hyperparameter grid computes the O(n²·d)
  distance expansion once and derives each (lengthscale, amplitude)
  candidate by cheap elementwise ops.

Amplitude enters as an exact final scaling (``amplitude**2 * base``), so
the direct and derived paths agree bit-for-bit in the amplitude factor.
"""

from __future__ import annotations

import numpy as np


def _sqdist(a: np.ndarray, b: np.ndarray, lengthscale: float = 1.0) -> np.ndarray:
    """Pairwise squared Euclidean distance of scaled inputs.

    Computed via the expansion ||x-y||^2 = ||x||^2 + ||y||^2 - 2 x.y,
    vectorized over both point sets (guide idiom: no Python loops).
    """
    a = np.atleast_2d(a) / lengthscale
    b = np.atleast_2d(b) / lengthscale
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    d2 = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


class _Stationary:
    """Shared machinery for stationary kernels (distance → covariance)."""

    __slots__ = ("lengthscale", "amplitude")

    def __init__(self, lengthscale: float = 0.2, amplitude: float = 1.0) -> None:
        if lengthscale <= 0 or amplitude <= 0:
            raise ValueError("lengthscale and amplitude must be > 0")
        self.lengthscale = float(lengthscale)
        self.amplitude = float(amplitude)

    def _base(self, d2: np.ndarray) -> np.ndarray:  # pragma: no cover
        """Unit-amplitude covariance from squared scaled distances."""
        raise NotImplementedError

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.amplitude ** 2 * self._base(_sqdist(a, b, self.lengthscale))

    def diag(self, X: np.ndarray) -> np.ndarray:
        """Self-covariance k(x, x) per row of ``X`` — without the matrix.

        Stationary kernels have constant prior variance, so this is an
        O(m) fill instead of the O(m²·d) matrix ``np.diag(k(X, X))``
        would cost.
        """
        X = np.atleast_2d(X)
        return np.full(X.shape[0], self.amplitude ** 2)

    def from_unit_sqdist(self, d2_unit: np.ndarray) -> np.ndarray:
        """Kernel matrix from a cached unit-lengthscale ``_sqdist`` matrix.

        ``d2_unit`` must be ``_sqdist(A, B, 1.0)``; the result equals
        ``self(A, B)`` up to floating-point rescaling order.  Grid
        searches use this to amortize one distance matrix across every
        (lengthscale, amplitude) candidate.
        """
        inv = 1.0 / (self.lengthscale * self.lengthscale)
        return self.amplitude ** 2 * self._base(d2_unit * inv)

    def with_params(self, lengthscale: float, amplitude: float):
        return type(self)(lengthscale, amplitude)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}(l={self.lengthscale:.4g}, "
                f"a={self.amplitude:.4g})")


class RBF(_Stationary):
    """Squared-exponential kernel: amp^2 * exp(-d^2 / (2 l^2))."""

    __slots__ = ()

    def _base(self, d2: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * d2)


class Matern52(_Stationary):
    """Matern-5/2 kernel — rougher sample paths than RBF."""

    __slots__ = ()

    def _base(self, d2: np.ndarray) -> np.ndarray:
        d = np.sqrt(d2)
        s5d = np.sqrt(5.0) * d
        return (1.0 + s5d + (5.0 / 3.0) * d * d) * np.exp(-s5d)
