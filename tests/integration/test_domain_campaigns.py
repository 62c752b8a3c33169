"""Cross-domain campaigns: a perovskite emission-targeting run.

The headline experiments optimize quantum-dot PLQY and perovskite
quality; this test drives the perovskite landscape toward a target
emission wavelength end-to-end through the same public API.
"""

import numpy as np

from repro.labsci import PerovskiteLandscape
from repro.methods import BayesianOptimizer


def test_perovskite_emission_targeting():
    """Optimize 'quality' (PLQY x wavelength match) toward 520 nm."""
    land = PerovskiteLandscape(seed=5)
    bo = BayesianOptimizer(land.space, np.random.default_rng(4), n_init=10)
    for _ in range(60):
        p = bo.ask()
        bo.tell(p, land.evaluate(p)["quality"])
    best_v, best_p = bo.best
    props = land.evaluate(best_p)
    assert best_v > 0.1
    # The found recipe actually emits near the target wavelength.
    assert abs(props["emission_nm"] - 520.0) < 60.0
