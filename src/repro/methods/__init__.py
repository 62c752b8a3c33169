"""Traditional scientific ML methods orchestrated by AI agents (§3.3).

"Modern LLM-based agents emerge as orchestrators coordinating specialized
techniques: Gaussian processes for uncertainty quantification, Bayesian
optimization for sample efficiency, and reinforcement learning for dynamic
control."  This package is those specialized techniques, implemented from
scratch on numpy/scipy:

- :mod:`repro.methods.kernels`, :mod:`repro.methods.gp` — GP regression.
- :mod:`repro.methods.acquisition` — EI / UCB / Thompson sampling.
- :mod:`repro.methods.bayesopt` — Bayesian optimization over mixed spaces.
- :mod:`repro.methods.nested` — nested discrete-continuous BO (ref [24]).
- :mod:`repro.methods.transfer` — cross-laboratory transfer learning.
- :mod:`repro.methods.rl_scheduler` — Q-learning for dynamic scheduling.
- :mod:`repro.methods.baselines` — random/grid comparison points.
"""

from repro.methods.acquisition import (expected_improvement, thompson_sample,
                                       upper_confidence_bound)
from repro.methods.baselines import GridSearch, RandomSearch
from repro.methods.bayesopt import BayesianOptimizer
from repro.methods.gp import GaussianProcess
from repro.methods.kernels import Matern52, RBF
from repro.methods.nested import NestedBayesianOptimizer
from repro.methods.rl_scheduler import QLearningScheduler
from repro.methods.transfer import TransferAdapter

__all__ = [
    "BayesianOptimizer",
    "GaussianProcess",
    "GridSearch",
    "Matern52",
    "NestedBayesianOptimizer",
    "QLearningScheduler",
    "RBF",
    "RandomSearch",
    "TransferAdapter",
    "expected_improvement",
    "thompson_sample",
    "upper_confidence_bound",
]
