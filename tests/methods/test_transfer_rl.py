"""Tests for the transfer adapter and the RL scheduler."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.labsci import ContinuousDim, DiscreteDim, ParameterSpace
from repro.methods import QLearningScheduler, TransferAdapter
from repro.methods.rl_scheduler import SchedulingState


@pytest.fixture
def space():
    return ParameterSpace([ContinuousDim("x", 0.0, 1.0)])


# -- transfer adapter ------------------------------------------------------------

def test_offset_estimated_from_coincident_pairs(space):
    ta = TransferAdapter(space, min_pairs=3, neighbor_scale=0.05)
    # Local truth: f(x) = x; foreign site reads 0.2 lower systematically.
    for x in (0.1, 0.3, 0.5, 0.7):
        ta.observe_local({"x": x}, x)
        ta.receive("site-b", {"x": x}, x - 0.2)
    offsets = ta.offset_estimates()
    assert offsets["site-b"] == pytest.approx(0.2, abs=0.02)


def test_corrected_donations_apply_offset(space):
    ta = TransferAdapter(space, min_pairs=2, neighbor_scale=0.05)
    for x in (0.2, 0.4, 0.6):
        ta.observe_local({"x": x}, x)
        ta.receive("b", {"x": x}, x - 0.1)
    donations = ta.corrected_donations("b")
    for params, value in donations:
        assert value == pytest.approx(params["x"], abs=0.02)
    assert ta.stats["corrected"] == 3


def test_passthrough_without_enough_pairs(space):
    ta = TransferAdapter(space, min_pairs=5)
    ta.receive("b", {"x": 0.5}, 0.4)
    donations = ta.corrected_donations("b")
    assert donations == [({"x": 0.5}, 0.4)]
    assert ta.stats["passthrough"] == 1


def test_distant_observations_do_not_pair(space):
    ta = TransferAdapter(space, min_pairs=1, neighbor_scale=0.01)
    ta.observe_local({"x": 0.1}, 0.1)
    ta.receive("b", {"x": 0.9}, 0.5)  # nowhere near local data
    assert ta.offset_estimates()["b"] is None


def test_all_corrected_merges_sources(space):
    ta = TransferAdapter(space, min_pairs=99)
    ta.receive("b", {"x": 0.1}, 0.1)
    ta.receive("c", {"x": 0.2}, 0.2)
    assert len(ta.all_corrected()) == 2


def test_offset_robust_to_outlier(space):
    ta = TransferAdapter(space, min_pairs=3, neighbor_scale=0.05)
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        ta.observe_local({"x": x}, x)
        ta.receive("b", {"x": x}, x - 0.2)
    ta.observe_local({"x": 0.95}, 0.95)
    ta.receive("b", {"x": 0.95}, 5.0)  # one corrupted donation
    # median keeps the estimate near the true offset
    assert ta.offset_estimates()["b"] == pytest.approx(0.2, abs=0.05)


class _FullRecompute(TransferAdapter):
    """The from-scratch offset estimate: the whole (local, donation)
    distance matrix and every delta, recomputed on each call."""

    def _estimate_offset(self, source):
        donations = self._foreign.get(source)
        if not donations or not self._local_rows:
            return None
        local_X, local_y = self._local_arrays()
        diff = local_X[:, None, :] - donations.X[None, :, :]
        near = np.linalg.norm(diff, axis=2) < self.neighbor_scale
        deltas = []
        for j, fy in enumerate(donations.values):
            mask = near[:, j]
            if mask.any():
                deltas.append(float(np.mean(local_y[mask])) - fy)
        if len(deltas) < self.min_pairs:
            return None
        return float(np.median(deltas))


def _same_float(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# Encoded widths 9-12: each distance is a pairwise-summed reduction.
_WIDE_SPACES = (
    ParameterSpace([ContinuousDim(f"x{i}", 0.0, 1.0) for i in range(9)]),
    ParameterSpace([ContinuousDim(f"x{i}", -5.0, 5.0) for i in range(12)]),
    ParameterSpace([DiscreteDim("chem", ("a", "b", "c", "d", "e"))]
                   + [ContinuousDim(f"x{i}", 0.0, 2.0) for i in range(4)]),
    ParameterSpace([ContinuousDim("t", 20.0, 300.0),
                    DiscreteDim("solvent", ("w", "e", "m")),
                    ContinuousDim("c", 0.0, 1.0),
                    DiscreteDim("ligand", ("p", "q", "r", "s")),
                    ContinuousDim("r", 0.0, 1.0)]),
)

# (actor, cluster, count, check): actor -1 observes ``count`` points
# locally, k >= 0 donates them as source ``s{k}``; ``check`` compares
# both adapters after the step.  Local steps are drawn twice as often
# and cluster 0 half the time, so donations often collect 8+ local
# neighbours.
_steps = st.lists(st.tuples(st.sampled_from((-1, -1, 0, 1, 2)),
                            st.sampled_from((0, 0, 1, 2)),
                            st.integers(1, 8), st.booleans()),
                  min_size=1, max_size=30)


@given(st.sampled_from(range(len(_WIDE_SPACES))),
       st.sampled_from([0.02, 0.04]), st.integers(1, 4),
       st.integers(0, 2**32 - 1), _steps)
@example(0, 0.02, 3, 7,
         [(-1, 0, 12, False)] + [(0, 0, 1, True), (1, 0, 1, False)] * 6
         + [(-1, 0, 1, True), (0, 1, 1, True), (-1, 1, 1, False)] * 4)
@settings(max_examples=150, deadline=None)
def test_property_incremental_offset_matches_full_recompute(
        space_i, jitter, min_pairs, seed, steps):
    """Interleaved local observations and donations from 1-3 sources,
    clustered within ``neighbor_scale`` so that donations often collect
    8+ local neighbours (where ``np.mean``'s pairwise sum departs from a
    running sum): the incremental estimate, the corrected donations, the
    offset estimates and the stats equal the from-scratch recompute bit
    for bit."""
    space = _WIDE_SPACES[space_i]
    rng = np.random.default_rng(seed)
    centers = [{d.name: (rng.uniform(0.2, 0.8)
                         if isinstance(d, ContinuousDim)
                         else d.choices[int(rng.integers(len(d.choices)))])
                for d in space.dims} for _ in range(3)]
    fast = TransferAdapter(space, min_pairs=min_pairs)
    ref = _FullRecompute(space, min_pairs=min_pairs)
    for i, (actor, cluster, count, check) in enumerate(steps):
        for _ in range(count):
            params = {}
            for d in space.dims:
                c = centers[cluster][d.name]
                if isinstance(d, ContinuousDim):
                    u = c + rng.uniform(-jitter, jitter)
                    c = d.low + u * (d.high - d.low)
                params[d.name] = c
            value = float(rng.normal())
            for ta in (fast, ref):
                if actor < 0:
                    ta.observe_local(params, value)
                else:
                    ta.receive(f"s{actor}", params, value)
        if not (check or i == len(steps) - 1):
            continue
        for source in sorted(ref._foreign):
            assert _same_float(fast._estimate_offset(source),
                               ref._estimate_offset(source))
            got = fast.corrected_donations(source)
            want = ref.corrected_donations(source)
            assert [p for p, _ in got] == [p for p, _ in want]
            assert all(_same_float(a, b)
                       for (_, a), (_, b) in zip(got, want))
        got, want = fast.offset_estimates(), ref.offset_estimates()
        assert list(got) == list(want)
        assert all(_same_float(got[s], want[s]) for s in want)
        assert fast.stats == ref.stats


# -- scheduling state -----------------------------------------------------------------

def test_state_discretization_bounds():
    s = SchedulingState.discretize(queue_length=0, frac_budget_used=0.0,
                                   recent_improvement=0.5)
    assert (s.queue_pressure, s.budget_phase, s.confidence) == (0, 0, 0)
    s = SchedulingState.discretize(queue_length=10, frac_budget_used=0.9,
                                   recent_improvement=0.0)
    assert (s.queue_pressure, s.budget_phase, s.confidence) == (2, 2, 2)


def test_state_hashable():
    a = SchedulingState(1, 1, 1)
    b = SchedulingState(1, 1, 1)
    assert a == b and hash(a) == hash(b)


# -- Q-learning -------------------------------------------------------------------------

def test_q_learning_learns_best_action():
    rng = np.random.default_rng(0)
    sched = QLearningScheduler(("flow", "batch", "simulate"), rng,
                               epsilon=0.3)
    state = SchedulingState(1, 1, 1)
    rewards = {"flow": 1.0, "batch": 0.2, "simulate": 0.5}
    for _ in range(300):
        action = sched.choose(state)
        sched.update(state, action, rewards[action])
    assert sched.policy(state) == "flow"


def test_q_learning_state_dependent_policy():
    rng = np.random.default_rng(1)
    sched = QLearningScheduler(("fast", "accurate"), rng, epsilon=0.4)
    early, late = SchedulingState(0, 0, 0), SchedulingState(0, 2, 2)
    for _ in range(400):
        for state, best in ((early, "fast"), (late, "accurate")):
            action = sched.choose(state)
            reward = 1.0 if action == best else 0.0
            sched.update(state, action, reward)
    assert sched.policy(early) == "fast"
    assert sched.policy(late) == "accurate"


def test_epsilon_decays():
    sched = QLearningScheduler(("a", "b"), np.random.default_rng(0),
                               epsilon=0.5, epsilon_decay=0.9,
                               min_epsilon=0.05)
    for _ in range(100):
        sched.update("s", "a", 1.0)
    assert sched.epsilon == pytest.approx(0.05)


def test_choose_respects_available_subset():
    sched = QLearningScheduler(("a", "b", "c"), np.random.default_rng(0),
                               epsilon=0.0)
    sched.update("s", "a", 10.0)
    # "a" is best but unavailable (e.g. instrument faulted):
    assert sched.choose("s", available=("b", "c")) in ("b", "c")


def test_validation():
    with pytest.raises(ValueError):
        QLearningScheduler((), np.random.default_rng(0))
    sched = QLearningScheduler(("a",), np.random.default_rng(0))
    with pytest.raises(ValueError):
        sched.choose("s", available=())


def test_terminal_update_ignores_future():
    sched = QLearningScheduler(("a",), np.random.default_rng(0), alpha=1.0,
                               epsilon=0.0)
    sched.update("s", "a", 1.0, next_state=None)
    assert sched.q("s", "a") == pytest.approx(1.0)
