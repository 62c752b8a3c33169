"""Tests for acquisition functions, baselines, BO, and nested BO."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from repro.labsci import (ContinuousDim, DiscreteDim, ParameterSpace,
                          SyntheticLandscape)
from repro.methods import (BayesianOptimizer, GridSearch,
                           NestedBayesianOptimizer, RandomSearch,
                           expected_improvement, upper_confidence_bound)
from repro.methods.acquisition import STD_FLOOR, score_candidates
from repro.methods.gp import GaussianProcess
from repro.methods.kernels import RBF


@pytest.fixture
def cont_space():
    return ParameterSpace([ContinuousDim("x", 0.0, 1.0),
                           ContinuousDim("y", 0.0, 1.0)])


@pytest.fixture
def mixed_space():
    return ParameterSpace([
        DiscreteDim("chem", ("a", "b", "c", "d")),
        ContinuousDim("x", 0.0, 1.0),
        ContinuousDim("y", 0.0, 1.0),
    ])


def optimize(opt, landscape, budget):
    for _ in range(budget):
        p = opt.ask()
        opt.tell(p, landscape.objective_value(p))
    return opt.best[0]


# -- acquisition functions ------------------------------------------------------

def test_ei_zero_when_certain_and_worse():
    ei = expected_improvement(np.array([0.1]), np.array([1e-12]), best=0.5)
    assert ei[0] == pytest.approx(0.0, abs=1e-9)


def test_ei_positive_when_uncertain():
    ei = expected_improvement(np.array([0.1]), np.array([0.3]), best=0.5)
    assert ei[0] > 0


def test_ei_monotone_in_mean():
    std = np.array([0.1, 0.1])
    ei = expected_improvement(np.array([0.4, 0.6]), std, best=0.5)
    assert ei[1] > ei[0]


_finite = st.floats(-1e6, 1e6, allow_nan=False)
_stds = st.one_of(st.sampled_from((0.0, -0.0, STD_FLOOR, 1e-6)),
                  st.floats(0.0, 1e3))


@given(st.lists(st.tuples(_finite, _stds), min_size=1, max_size=16),
       _finite, st.sampled_from((0.0, -0.0, 0.01, 0.5)))
@settings(max_examples=200, deadline=None)
@example([(0.0, 0.0), (-0.0, -0.0), (1e6, STD_FLOOR), (-1e6, 1.0)],
         0.0, 0.0)
@example([(0.5, 0.0), (0.51, 0.0), (0.49, 1e-6)], 0.5, 0.01)
def test_acquisitions_bit_identical_to_scipy_stats_norm(points, best, xi):
    """ndtr and the closed-form pdf give the same bytes as
    scipy.stats.norm, floored std and |z| far beyond 1e6 included."""
    mean = np.array([m for m, _ in points])
    std = np.array([s for _, s in points])
    floored = np.maximum(std, STD_FLOOR)
    z = (mean - best - xi) / floored
    want_ei = (mean - best - xi) * norm.cdf(z) + floored * norm.pdf(z)
    got_ei = expected_improvement(mean, std, best, xi=xi)
    assert got_ei.tobytes() == want_ei.tobytes()


def test_ucb_tradeoff():
    assert upper_confidence_bound(np.array([0.5]), np.array([0.2]),
                                  beta=2.0)[0] == pytest.approx(0.9)


def test_score_candidates_dispatch():
    rng = np.random.default_rng(0)
    X = rng.random((20, 2))
    y = X[:, 0]
    gp = GaussianProcess(RBF(0.3), noise=0.05).fit(X, y)
    Xc = rng.random((15, 2))
    for name in ("ei", "ucb", "thompson"):
        scores = score_candidates(name, gp, Xc, best=0.8, rng=rng)
        assert scores.shape == (15,)
    with pytest.raises(ValueError):
        score_candidates("magic", gp, Xc, best=0.8, rng=rng)


# -- baselines -------------------------------------------------------------------

def test_random_search_valid_and_tracks_best(cont_space):
    land = SyntheticLandscape(cont_space, seed=1)
    rs = RandomSearch(cont_space, np.random.default_rng(0))
    best = optimize(rs, land, 50)
    assert len(rs.history) == 50
    assert best == max(v for _, v in rs.history)
    traj = rs.best_trajectory()
    assert traj == sorted(traj)  # monotone non-decreasing


def test_grid_search_covers_grid(mixed_space):
    gs = GridSearch(mixed_space, points_per_dim=3)
    n_points = 4 * 3 * 3   # the product of the dimensions' levels
    seen = {tuple(sorted(gs.ask().items())) for _ in range(n_points)}
    assert len(seen) == n_points
    # wraps around deterministically
    again = gs.ask()
    assert tuple(sorted(again.items())) in seen


def test_grid_search_validation(mixed_space):
    with pytest.raises(ValueError):
        GridSearch(mixed_space, points_per_dim=1)


# -- Bayesian optimization ----------------------------------------------------------

def test_bo_beats_random_on_smooth_landscape(cont_space):
    budget = 40
    results = {}
    for name, make in [
        ("bo", lambda rng: BayesianOptimizer(cont_space, rng, n_init=8)),
        ("rs", lambda rng: RandomSearch(cont_space, rng)),
    ]:
        scores = []
        for seed in range(4):
            land = SyntheticLandscape(cont_space, seed=17, n_peaks=3)
            opt = make(np.random.default_rng(seed))
            scores.append(optimize(opt, land, budget))
        results[name] = float(np.mean(scores))
    assert results["bo"] >= results["rs"]


def test_bo_respects_space(cont_space):
    bo = BayesianOptimizer(cont_space, np.random.default_rng(0), n_init=4)
    land = SyntheticLandscape(cont_space, seed=3)
    for _ in range(20):
        p = bo.ask()
        assert cont_space.contains(p)
        bo.tell(p, land.objective_value(p))


def test_bo_absorb_external_observations(cont_space):
    land = SyntheticLandscape(cont_space, seed=9)
    donor = RandomSearch(cont_space, np.random.default_rng(1))
    for _ in range(30):
        p = donor.ask()
        donor.tell(p, land.objective_value(p))
    bo = BayesianOptimizer(cont_space, np.random.default_rng(2), n_init=8)
    for p, v in donor.history:
        bo.absorb(p, v)
    # External knowledge means the surrogate is active from ask #1.
    p = bo.ask()
    assert cont_space.contains(p)
    assert len(bo.history) == 0  # absorbed data is not "ours"


def test_bo_acquisition_variants_run(cont_space):
    land = SyntheticLandscape(cont_space, seed=5)
    for acq in ("ei", "ucb", "thompson"):
        bo = BayesianOptimizer(cont_space, np.random.default_rng(0),
                               acquisition=acq, n_init=4, n_candidates=64)
        optimize(bo, land, 12)
        assert bo.best is not None


# -- nested BO -------------------------------------------------------------------------

def test_nested_requires_discrete(cont_space):
    with pytest.raises(ValueError):
        NestedBayesianOptimizer(cont_space, np.random.default_rng(0))


def test_nested_explores_then_concentrates(mixed_space):
    land = SyntheticLandscape(mixed_space, seed=21, n_peaks=3)
    nbo = NestedBayesianOptimizer(mixed_space, np.random.default_rng(0),
                                  arm_subset=8)
    optimize(nbo, land, 60)
    assert nbo.n_arms_visited >= 2  # explored several chemistries
    summary = nbo.arm_summary()
    pulls = {k: p for k, p, _ in summary}
    best_arm = summary[0][0]
    # the best chemistry got the most attention
    assert pulls[best_arm] == max(pulls.values())


def test_nested_tracks_history_and_best(mixed_space):
    land = SyntheticLandscape(mixed_space, seed=2)
    nbo = NestedBayesianOptimizer(mixed_space, np.random.default_rng(1))
    best = optimize(nbo, land, 30)
    assert len(nbo.history) == 30
    assert best == max(v for _, v in nbo.history)


def test_nested_absorb_routes_to_arm(mixed_space):
    nbo = NestedBayesianOptimizer(mixed_space, np.random.default_rng(0))
    nbo.absorb({"chem": "b", "x": 0.5, "y": 0.5}, 0.9)
    arm = nbo._arms[("b",)]
    assert arm.best_value == 0.9
    assert arm.pulls == 0  # donations are not pulls


def test_nested_on_quantum_dot_scale(qd_landscape):
    # Smoke test on the real 10^13 space: it must run and improve.
    nbo = NestedBayesianOptimizer(qd_landscape.space,
                                  np.random.default_rng(3), arm_subset=16)
    traj = []
    for _ in range(40):
        p = nbo.ask()
        v = qd_landscape.objective_value(p)
        nbo.tell(p, v)
        traj.append(nbo.best[0])
    assert traj[-1] >= traj[5]


# -- std == 0 regression (posterior collapses at observed points) ---------------

def test_ei_finite_at_exact_zero_std():
    ei = expected_improvement(np.array([0.1, 0.5, 0.9]),
                              np.array([0.0, 0.0, 0.0]), best=0.5)
    assert np.all(np.isfinite(ei))
    # At/below the incumbent with zero uncertainty: no improvement.
    assert ei[0] == pytest.approx(0.0, abs=1e-9)
    assert ei[1] == pytest.approx(0.0, abs=1e-9)
    # Certainly better: EI collapses to the mean gap.
    assert ei[2] == pytest.approx(0.9 - 0.5 - 0.01, abs=1e-6)


def test_score_candidates_finite_on_observed_points():
    """Scoring the training points themselves must not produce NaN/inf."""
    X = np.array([[0.1, 0.2], [0.8, 0.9], [0.4, 0.5]])
    y = np.array([0.3, 0.7, 0.5])
    gp = GaussianProcess(kernel=RBF(lengthscale=0.3), noise=1e-6).fit(X, y)
    rng = np.random.default_rng(0)
    for name in ("ei", "ucb"):
        scores = score_candidates(name, gp, X, best=0.7, rng=rng)
        assert np.all(np.isfinite(scores)), name


# -- batched ask determinism ----------------------------------------------------

def _run_campaign(seed):
    from repro.scale import decision_hash
    land = SyntheticLandscape(
        ParameterSpace([DiscreteDim("chem", ("a", "b", "c")),
                        ContinuousDim("x", 0.0, 1.0),
                        ContinuousDim("y", 0.0, 1.0)]), seed=5)
    opt = BayesianOptimizer(land.space, np.random.default_rng(seed),
                            n_init=4, n_candidates=64)
    decisions = []
    for _ in range(16):
        p = opt.ask()
        v = land.objective_value(p)
        opt.tell(p, v)
        decisions.append((p, v))
    return decision_hash(decisions)


def test_ask_decision_hash_stable_across_same_seed_worlds():
    """Two same-seed campaigns in one process make identical decisions."""
    assert _run_campaign(42) == _run_campaign(42)
    assert _run_campaign(42) != _run_campaign(43)


def test_perturb_batch_stays_in_bounds(mixed_space):
    opt = BayesianOptimizer(mixed_space, np.random.default_rng(1),
                            n_candidates=32)
    incumbent = {"chem": "b", "x": 0.01, "y": 0.99}
    raw = opt._perturb_batch(incumbent)
    n_copies = len(opt._JITTER_SCALES) * opt._JITTER_COPIES
    assert raw.shape == (n_copies, len(mixed_space))
    for p in mixed_space.decode_batch(raw):
        mixed_space.validate(p)
        assert p["chem"] == "b"  # discrete coordinates never jittered
