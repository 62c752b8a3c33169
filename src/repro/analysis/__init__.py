"""``repro.analysis`` — determinism and contract tooling (a.k.a. **detlint**).

The repo's claim to AISLE's quantified milestones rests on bit-identical
same-seed simulation.  Reviewer vigilance does not scale to that
contract; this package enforces it with tooling:

- **Static half** (:mod:`repro.analysis.contracts`): one analyzer that
  parses each file once and runs two rule families on it — the per-file
  determinism rules D001–D006 (:mod:`repro.analysis.rules`: module-global
  id factories, wall-clock reads, process-global randomness, set-order
  iteration, ``id()``/``hash()`` ordering keys, raw process pools) and
  the whole-program contract rules C001–C004 — with one
  ``# detlint: ignore[...]`` pragma rule, ``[tool.detlint]`` config in
  ``pyproject.toml``, an incremental fact cache, a baseline ratchet, and
  text/JSON/SARIF reports.  Run it with::

      python -m repro.analysis

- **Runtime half** (:mod:`repro.analysis.audit`): an opt-in sim-time race
  auditor that rides the kernel's step/schedule hooks, counting
  same-timestamp ties (and cross-process ones) and catching cross-process
  mutation of shared registries within one timestep — with findings
  exposed as :mod:`repro.obs` counters.
"""

from repro.analysis.audit import AuditFinding, RaceAuditor, WatchedRegistry
from repro.analysis.contracts import (RULES, DetlintConfig, Finding, Report,
                                      analyze, lint_source, load_config)
from repro.analysis.rules import ALL_RULES, Violation

__all__ = [
    "ALL_RULES",
    "AuditFinding",
    "DetlintConfig",
    "Finding",
    "RaceAuditor",
    "Report",
    "RULES",
    "Violation",
    "WatchedRegistry",
    "analyze",
    "lint_source",
    "load_config",
]
