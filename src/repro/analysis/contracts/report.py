"""The one report: text/JSON/SARIF 2.1.0 output, baseline ratchet, exit code.

Both rule families share this path.  The ratchet
(``analysis_baseline.json`` at the repo root) makes the analyzer
adoptable on a tree with pre-existing debt: every finding's
:attr:`~repro.analysis.contracts.rules.Finding.fingerprint`
(rule + file + stable key, *not* line numbers) is compared against the
committed baseline — **new** findings fail the run, baselined ones are
reported but tolerated while they burn down.  Every baseline entry must
carry a human ``note`` explaining why it is tolerated; unexplained
entries are themselves reported so the ratchet cannot silently rot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.contracts.rules import RULES, Finding

__all__ = ["Baseline", "Report", "to_sarif"]

REPORT_VERSION = 2
BASELINE_VERSION = 1

#: Default committed ratchet file, relative to the working directory.
DEFAULT_BASELINE = "analysis_baseline.json"


@dataclass
class Baseline:
    """The committed set of tolerated (pre-existing) findings."""

    entries: dict[str, dict] = field(default_factory=dict)  # fp -> entry
    path: Optional[str] = None

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        path = Path(path)
        if not path.is_file():
            return cls(path=path.as_posix())
        data = json.loads(path.read_text("utf-8"))
        entries = {e["fingerprint"]: dict(e)
                   for e in data.get("entries", ())}
        return cls(entries=entries, path=path.as_posix())

    @classmethod
    def from_findings(cls, findings: Sequence[Finding],
                      notes: Optional[dict[str, str]] = None,
                      previous: Optional["Baseline"] = None) -> "Baseline":
        """Build a baseline from current findings, keeping any notes the
        previous baseline already carried for surviving fingerprints."""
        entries: dict[str, dict] = {}
        for f in findings:
            if f.suppressed:
                continue
            note = ""
            if previous is not None and f.fingerprint in previous.entries:
                note = previous.entries[f.fingerprint].get("note", "")
            if notes and f.fingerprint in notes:
                note = notes[f.fingerprint]
            entries[f.fingerprint] = {
                "fingerprint": f.fingerprint, "code": f.code,
                "path": f.path, "key": f.key, "severity": f.severity,
                "note": note,
            }
        return cls(entries=entries)

    def save(self, path: str | Path) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "tool": "repro.analysis.contracts",
            "entries": [self.entries[fp] for fp in sorted(self.entries)],
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False)
                              + "\n", "utf-8")

    def unexplained(self) -> list[str]:
        """Fingerprints whose entries carry no justifying note."""
        return [fp for fp in sorted(self.entries)
                if not self.entries[fp].get("note", "").strip()]


@dataclass
class Report:
    """Everything one analysis run learned."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    cache_hits: int = 0
    files_reparsed: int = 0
    baseline: Optional[Baseline] = None

    @property
    def unsuppressed(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def new_findings(self) -> list[Finding]:
        """Unsuppressed findings not absorbed by the baseline."""
        if self.baseline is None:
            return self.unsuppressed
        return [f for f in self.unsuppressed
                if f.fingerprint not in self.baseline.entries]

    @property
    def stale_baseline(self) -> list[str]:
        """Baseline fingerprints that no longer occur (ready to drop)."""
        if self.baseline is None:
            return []
        live = {f.fingerprint for f in self.unsuppressed}
        return [fp for fp in sorted(self.baseline.entries)
                if fp not in live]

    @property
    def exit_code(self) -> int:
        return 1 if self.new_findings else 0

    def to_text(self, show_suppressed: bool = False) -> str:
        """One rendered block per finding; baselined ones are tagged."""
        new = {f.fingerprint for f in self.new_findings}
        return "\n".join(
            f.render() + ("" if f.fingerprint in new or f.suppressed
                          else " (baselined)")
            for f in self.findings if show_suppressed or not f.suppressed)

    def to_dict(self) -> dict:
        by_code: dict[str, int] = {}
        for f in self.unsuppressed:
            by_code[f.code] = by_code.get(f.code, 0) + 1
        out = {
            "version": REPORT_VERSION,
            "tool": "repro.analysis",
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "files_scanned": self.files_scanned,
                "cache_hits": self.cache_hits,
                "files_reparsed": self.files_reparsed,
                "findings": len(self.findings),
                "unsuppressed": len(self.unsuppressed),
                "suppressed": len(self.findings) - len(self.unsuppressed),
                "new": len(self.new_findings),
                "by_code": dict(sorted(by_code.items())),
            },
        }
        if self.baseline is not None:
            out["baseline"] = {
                "path": self.baseline.path,
                "entries": len(self.baseline.entries),
                "matched": len(self.unsuppressed) - len(self.new_findings),
                "stale": self.stale_baseline,
                "unexplained": self.baseline.unexplained(),
            }
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_sarif(self, indent: int = 2) -> str:
        return json.dumps(to_sarif(self.findings,
                                   new=set(f.fingerprint
                                           for f in self.new_findings)),
                          indent=indent)


def to_sarif(findings: Sequence[Finding],
             new: Optional[set[str]] = None) -> dict:
    """Render findings as a SARIF 2.1.0 log (one run, one driver).

    Baseline-absorbed findings get ``baselineState: "unchanged"`` and
    new ones ``"new"`` so SARIF viewers (and the CI gate) can tell the
    ratchet's two classes apart.
    """
    rules = [{
        "id": code,
        "name": "".join(ch for ch in title.title() if ch.isalnum()),
        "shortDescription": {"text": title},
        "help": {"text": hint},
    } for code, (title, hint) in sorted(RULES.items())]
    results = []
    for f in findings:
        if f.suppressed:
            continue
        level = "error" if f.severity == "error" else "warning"
        result = {
            "ruleId": f.code,
            "level": level,
            "message": {"text": f.message},
            "partialFingerprints": {"contractKey/v1": f.fingerprint},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path},
                    "region": {"startLine": max(1, f.line),
                               "startColumn": f.col + 1},
                },
            }],
        }
        if new is not None:
            result["baselineState"] = ("new" if f.fingerprint in new
                                       else "unchanged")
        results.append(result)
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro.analysis",
                "informationUri": "https://example.invalid/repro",
                "rules": rules,
            }},
            "results": results,
        }],
    }
