"""Covariance kernels for Gaussian-process regression.

Both kernels are *stationary*: covariance depends only on the pairwise
distance between inputs, so the self-covariance of any point is just
``amplitude**2`` and :meth:`_Stationary.diag` gives callers that only
need a diagonal (``predict``'s prior variance) that diagonal without an
m×m matrix.

Amplitude enters as an exact final scaling (``amplitude**2 * base``), so
a hyperparameter grid can build one lengthscale's unit-amplitude
``_base`` and rescale it for every amplitude, bit-for-bit equal to
calling each candidate kernel.
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
