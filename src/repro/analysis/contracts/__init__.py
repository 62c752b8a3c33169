"""The analyzer: both rule families in one pass over the tree.

Each file is parsed once (:func:`~repro.analysis.contracts.facts.extract_facts`)
into :class:`~repro.analysis.contracts.facts.ModuleFacts` — the per-file
determinism violations (D001–D006, :mod:`repro.analysis.rules`) next to
the contract facts — and memoized in an mtime+content-hash cache
(``.contracts_cache.json``).  The facts are assembled into a
:class:`~repro.analysis.contracts.project.ProjectIndex` over which
:func:`~repro.analysis.contracts.rules.run_rules` reports the D-findings
per file and checks the *string contracts* that wire the layers together
(C001–C004) — bus topic literals against bind patterns, metric names
against their read sites, resilience call sites against deadline
hygiene, and per-shard classes against the merge protocol.

Both families share one :class:`Finding`, one ``# detlint: ignore[...]``
pragma rule, one :class:`Report` (text/JSON/SARIF) and one committed
baseline (``analysis_baseline.json``) that ratchets pre-existing debt:
CI fails only on *new* findings.

Entry points: ``python -m repro.analysis`` (CLI), :func:`analyze`
(library) and :func:`lint_source` (the D-rules on one source string).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.contracts.facts import (FACTS_VERSION, ClassFact,
                                            MetricFact, ModuleFacts,
                                            ResilienceFact, TopicFact,
                                            extract_facts)
from repro.analysis.contracts.project import (DEFAULT_CACHE, DetlintConfig,
                                              ProjectIndex, build_project,
                                              load_config)
from repro.analysis.contracts.report import (DEFAULT_BASELINE, Baseline,
                                             Report, to_sarif)
from repro.analysis.contracts.rules import (RULES, Finding, enabled_codes,
                                            run_rules, template_matches)

__all__ = [
    "FACTS_VERSION", "ModuleFacts", "TopicFact", "MetricFact",
    "ResilienceFact", "ClassFact", "extract_facts",
    "DetlintConfig", "ProjectIndex", "build_project", "load_config",
    "DEFAULT_CACHE",
    "Baseline", "Report", "to_sarif", "DEFAULT_BASELINE",
    "RULES", "Finding", "enabled_codes", "run_rules", "template_matches",
    "analyze", "lint_source",
]


def analyze(paths: Sequence[str | Path],
            refs: Sequence[str | Path] = (),
            config: Optional[DetlintConfig] = None,
            cache_path: Optional[str | Path] = DEFAULT_CACHE,
            baseline_path: Optional[str | Path] = None) -> Report:
    """One-call analysis: index, both rule families, baseline comparison.

    ``paths`` are the program the C-rules judge; ``refs`` are read-side
    evidence only.  D-findings cover every scanned file outside
    ``config.exclude``.
    """
    index = build_project(paths, refs=refs, cache_path=cache_path)
    findings = run_rules(index, config)
    baseline = None
    if baseline_path is not None and Path(baseline_path).is_file():
        baseline = Baseline.load(baseline_path)
    return Report(
        findings=findings, files_scanned=index.files_scanned,
        cache_hits=index.cache_hits, files_reparsed=index.files_reparsed,
        baseline=baseline)


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """D-findings for one source string (the C-rules need a whole
    program); raises ``SyntaxError`` on unparsable input."""
    facts = extract_facts(source, path, Path(path).stem)
    d_codes = tuple(code for code in RULES if code.startswith("D"))
    return run_rules(ProjectIndex(program=[facts]),
                     DetlintConfig(select=d_codes))
