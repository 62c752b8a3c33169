"""Deterministic scale-out: parallel world execution (§3.2, M3/M7).

The paper's federation milestones assume many facilities running
concurrently; this package makes the reproduction do the same without
giving up its bit-for-bit determinism contract.  A seeded world is a
pure function of ``(seed, config, entrypoint)`` — PR 3's per-world id
sequencers and detlint rules exist precisely so that holds — which means
worlds can execute *anywhere* in any order and still agree with a serial
replay.  The pieces:

- :mod:`repro.scale.runner` — :class:`WorldRunner` fans
  :class:`WorldSpec`\\ s across a ``ProcessPoolExecutor`` forked for the
  batch and joined before :meth:`~WorldRunner.run` returns (serial
  in-process fallback, ``REPRO_WORKERS`` env knob), returning results in
  spec order with a per-world decision hash;
- :mod:`repro.scale.hashing` — canonical plain-data hashing
  (:func:`decision_hash`) used to assert serial/parallel equivalence;
- :mod:`repro.scale.worlds` — canonical picklable entrypoints
  (:func:`~repro.scale.worlds.bo_world`,
  :func:`~repro.scale.worlds.testbed_world`);
- ``python -m repro.scale`` — CLI that runs a multi-seed sweep and
  emits a hash manifest, diffed by the CI ``parallel-equivalence`` job.

detlint rule D006 keeps every other module off raw process pools: all
fan-out goes through the runner, where the equivalence check lives.
"""

from repro.scale.hashing import canonical_bytes, combine_hashes, decision_hash
from repro.scale.runner import (WORKERS_ENV, DeterminismError, WorldBatch,
                                WorldFailure, WorldResult, WorldRunner,
                                WorldSpec, resolve_workers)
from repro.scale.worlds import WORLD_KINDS, bo_world, testbed_world

__all__ = [
    "WORKERS_ENV",
    "WORLD_KINDS",
    "DeterminismError",
    "WorldBatch",
    "WorldFailure",
    "WorldResult",
    "WorldRunner",
    "WorldSpec",
    "bo_world",
    "canonical_bytes",
    "combine_hashes",
    "decision_hash",
    "resolve_workers",
    "testbed_world",
]
