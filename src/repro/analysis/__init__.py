"""``repro.analysis`` — determinism and contract tooling (a.k.a. **detlint**).

The repo's claim to AISLE's quantified milestones rests on bit-identical
same-seed simulation.  Reviewer vigilance does not scale to that
contract; this package enforces it statically.
:mod:`repro.analysis.contracts` is one analyzer that parses each file
once and runs two rule families on it — the per-file determinism rules
D001–D006 (:mod:`repro.analysis.rules`: module-global id factories,
wall-clock reads, process-global randomness, set-order iteration,
``id()``/``hash()`` ordering keys, raw process pools) and the
whole-program contract rules C001–C004 — with one
``# detlint: ignore[...]`` pragma rule, ``[tool.detlint]`` config in
``pyproject.toml``, an incremental fact cache, a baseline ratchet, and
text/JSON/SARIF reports.  Run it with::

    python -m repro.analysis

The runtime side of the promise is checked end to end: serial and
parallel :mod:`repro.scale` manifests must match byte for byte, and so
must a replayed archive.
"""

from repro.analysis.contracts import (RULES, DetlintConfig, Finding, Report,
                                      analyze, lint_source, load_config)
from repro.analysis.rules import ALL_RULES, Violation

__all__ = [
    "ALL_RULES",
    "DetlintConfig",
    "Finding",
    "Report",
    "RULES",
    "Violation",
    "analyze",
    "lint_source",
    "load_config",
]
