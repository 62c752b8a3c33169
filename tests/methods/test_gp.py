"""Tests for kernels and Gaussian-process regression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.methods import GaussianProcess, Matern52, RBF


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# -- kernels ------------------------------------------------------------------

@pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
def test_kernel_diagonal_is_amplitude_squared(kernel_cls):
    k = kernel_cls(lengthscale=0.3, amplitude=2.0)
    X = np.random.default_rng(0).random((5, 3))
    K = k(X, X)
    assert np.allclose(np.diag(K), 4.0)


@pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
def test_kernel_symmetric_psd(kernel_cls):
    k = kernel_cls(lengthscale=0.5)
    X = np.random.default_rng(1).random((20, 4))
    K = k(X, X)
    assert np.allclose(K, K.T)
    eigvals = np.linalg.eigvalsh(K)
    assert eigvals.min() > -1e-8


@pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
def test_kernel_decays_with_distance(kernel_cls):
    k = kernel_cls(lengthscale=0.2)
    a = np.zeros((1, 2))
    near = np.array([[0.05, 0.0]])
    far = np.array([[0.9, 0.9]])
    assert k(a, near)[0, 0] > k(a, far)[0, 0]


@pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
def test_kernel_param_validation(kernel_cls):
    with pytest.raises(ValueError):
        kernel_cls(lengthscale=0.0)
    with pytest.raises(ValueError):
        kernel_cls(amplitude=-1.0)


# -- GP regression -----------------------------------------------------------------

def test_gp_interpolates_training_data(rng):
    X = rng.random((15, 2))
    y = np.sin(4 * X[:, 0]) + X[:, 1]
    gp = GaussianProcess(RBF(lengthscale=0.3), noise=1e-3)
    gp.fit(X, y)
    mean, std = gp.predict(X)
    assert np.allclose(mean, y, atol=0.05)
    assert np.all(std < 0.1)


def test_gp_uncertainty_grows_away_from_data(rng):
    X = rng.random((10, 1)) * 0.3  # data clustered in [0, 0.3]
    y = np.sin(5 * X[:, 0])
    gp = GaussianProcess(RBF(lengthscale=0.2), noise=1e-2).fit(X, y)
    _, std_near = gp.predict(np.array([[0.15]]))
    _, std_far = gp.predict(np.array([[0.95]]))
    assert std_far[0] > std_near[0] * 2


def test_gp_prediction_reasonable_between_points(rng):
    X = np.linspace(0, 1, 20)[:, None]
    y = np.sin(2 * np.pi * X[:, 0])
    gp = GaussianProcess(Matern52(lengthscale=0.2), noise=1e-2).fit(X, y)
    xq = np.array([[0.525]])
    mean, _ = gp.predict(xq)
    assert mean[0] == pytest.approx(np.sin(2 * np.pi * 0.525), abs=0.1)


def test_gp_shape_validation(rng):
    gp = GaussianProcess()
    with pytest.raises(ValueError):
        gp.fit(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        gp.fit(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(RuntimeError):
        gp.predict(np.zeros((1, 2)))


def test_gp_noise_validation():
    with pytest.raises(ValueError):
        GaussianProcess(noise=0.0)


def test_gp_normalization_handles_large_targets(rng):
    X = rng.random((20, 2))
    y = 1e4 + 100 * np.sin(3 * X[:, 0])
    gp = GaussianProcess(RBF(lengthscale=0.3), noise=1e-2).fit(X, y)
    mean, _ = gp.predict(X)
    assert np.allclose(mean, y, rtol=0.01)


def test_gp_lml_prefers_true_lengthscale(rng):
    X = rng.random((40, 1))
    y = np.sin(2 * np.pi * X[:, 0])  # characteristic scale ~0.15-0.3
    lmls = {}
    for l in (0.01, 0.2, 5.0):
        gp = GaussianProcess(RBF(lengthscale=l), noise=0.05).fit(X, y)
        lmls[l] = gp.log_marginal_likelihood()
    assert lmls[0.2] > lmls[0.01]
    assert lmls[0.2] > lmls[5.0]


def test_gp_hyperparameter_fit_improves_lml(rng):
    X = rng.random((30, 2))
    y = np.sin(6 * X[:, 0]) * np.cos(3 * X[:, 1])
    gp = GaussianProcess(RBF(lengthscale=5.0), noise=0.05)
    gp.fit(X, y)
    before = gp.log_marginal_likelihood()
    gp.fit_hyperparameters(X, y)
    after = gp.log_marginal_likelihood()
    assert after >= before


def test_gp_posterior_samples_match_moments(rng):
    X = rng.random((12, 1))
    y = np.sin(4 * X[:, 0])
    gp = GaussianProcess(RBF(lengthscale=0.3), noise=1e-2).fit(X, y)
    Xq = np.linspace(0, 1, 7)[:, None]
    mean, std = gp.predict(Xq)
    draws = gp.sample_posterior(Xq, rng, n_samples=3000)
    assert draws.shape == (3000, 7)
    assert np.allclose(draws.mean(axis=0), mean, atol=0.05)
    assert np.allclose(draws.std(axis=0), std, atol=0.08)


@given(st.integers(min_value=2, max_value=25), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_property_gp_std_nonnegative_and_finite(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = rng.normal(size=n)
    gp = GaussianProcess(RBF(lengthscale=0.3), noise=0.05).fit(X, y)
    mean, std = gp.predict(rng.random((10, 2)))
    assert np.all(np.isfinite(mean))
    assert np.all(std >= 0)


# -- fast-path behaviors (incremental stack, PR 4) -----------------------------

def test_unfitted_lml_raises_runtime_error():
    gp = GaussianProcess()
    with pytest.raises(RuntimeError):
        gp.log_marginal_likelihood()


def test_failed_grid_never_half_swaps_kernel(rng, monkeypatch):
    """A grid search that dies mid-scan must not mutate the incumbent."""
    import repro.methods.gp as gp_mod

    X = rng.random((15, 2))
    y = np.sin(4 * X[:, 0])
    original = RBF(lengthscale=0.33, amplitude=1.7)
    gp = GaussianProcess(original, noise=0.05)

    def always_fails(K, lower=True, **kw):
        raise np.linalg.LinAlgError("synthetic factorization failure")

    monkeypatch.setattr(gp_mod, "cho_factor", always_fails)
    with pytest.raises(np.linalg.LinAlgError):
        gp.fit_hyperparameters(X, y)
    assert gp.kernel is original
    assert gp.kernel.lengthscale == 0.33
    assert gp.kernel.amplitude == 1.7


@pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
def test_kernel_diag_matches_full_matrix(kernel_cls, rng):
    k = kernel_cls(lengthscale=0.4, amplitude=1.3)
    X = rng.random((12, 5))
    assert np.allclose(k.diag(X), np.diag(k(X, X)))


@pytest.mark.parametrize("kernel_cls", [RBF, Matern52])
def test_grid_search_equals_fitting_every_candidate(kernel_cls, rng):
    """The shared-base grid picks the candidate, and the LML, that a plain
    ``fit`` of every grid kernel in scan order picks, bit for bit."""
    import repro.methods.gp as gp_mod

    X = rng.random((30, 3))
    y = np.sin(6 * X[:, 0]) * np.cos(3 * X[:, 1])
    best = None
    for l in gp_mod._GRID_LENGTHSCALES:
        for a in gp_mod._GRID_AMPLITUDES:
            lml = GaussianProcess(kernel_cls(l, a), noise=0.05).fit(
                X, y).log_marginal_likelihood()
            if best is None or lml > best[0]:
                best = (lml, l, a)
    gp = GaussianProcess(kernel_cls(), noise=0.05).fit_hyperparameters(X, y)
    assert type(gp.kernel) is kernel_cls
    assert (gp.log_marginal_likelihood(), gp.kernel.lengthscale,
            gp.kernel.amplitude) == best
