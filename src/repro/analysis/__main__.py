"""Console entry point: ``python -m repro.analysis [paths...]``.

One pass runs both rule families: the per-file determinism rules
(D000-D006) on every scanned file outside ``[tool.detlint] exclude``,
and the whole-program contract rules (C001-C004) on the program paths,
with ``--refs`` trees as read-side evidence.  The incremental fact cache
and the baseline ratchet cover both.

Exit status: 0 — clean (no unsuppressed finding outside the baseline);
1 — findings; 2 — usage error (unknown rule code, no such path).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.contracts import (DEFAULT_BASELINE, DEFAULT_CACHE, RULES,
                                      Baseline, DetlintConfig, analyze,
                                      enabled_codes, load_config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for AISLE: determinism rules "
                    "(D000-D006) and whole-program contract rules "
                    "(C001-C004) in one pass")
    parser.add_argument("paths", nargs="*", default=None,
                        help="the program the C-rules judge (default: src)")
    parser.add_argument("--refs", metavar="PATH", action="append",
                        default=None,
                        help="read-side evidence trees: C-rules read "
                             "them, D-rules lint them (default: tests "
                             "benchmarks examples, when present)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--ignore", default=None,
                        help="comma-separated rule codes to skip")
    parser.add_argument("--no-config", action="store_true",
                        help="skip [tool.detlint] discovery in "
                             "pyproject.toml")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print pragma-suppressed findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format (default: text)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the json/sarif report to FILE ('-' "
                             "for stdout, the default); with text, FILE "
                             "gets the JSON report")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="ratchet file of tolerated findings "
                             "(default: analysis_baseline.json when it "
                             "exists)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline: every finding fails "
                             "the run")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the current "
                             "findings (keeps existing notes) and exit 0")
    parser.add_argument("--cache", metavar="FILE", default=None,
                        help="incremental fact-cache location "
                             "(default: .contracts_cache.json)")
    parser.add_argument("--no-cache", action="store_true",
                        help="reparse everything; do not read or write "
                             "the cache")
    return parser


def _codes(raw: Optional[str]) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(c.strip().upper() for c in raw.split(",") if c.strip())


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for code, (title, hint) in RULES.items():
            print(f"{code}  {title}")
            print(f"      hint: {hint}")
        return 0

    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"analysis: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.refs is None:
        refs = [p for p in ("tests", "benchmarks", "examples")
                if Path(p).is_dir()]
    else:
        refs = [p for p in args.refs if p]

    config = DetlintConfig() if args.no_config else load_config(Path.cwd())
    if args.select:
        config.select = _codes(args.select)
    if args.ignore:
        config.ignore = config.ignore + _codes(args.ignore)
    try:
        enabled_codes(config)
    except ValueError as exc:
        print(f"analysis: {exc}", file=sys.stderr)
        return 2

    baseline_path = args.baseline or DEFAULT_BASELINE
    # detlint: ignore[D002] CLI wall-time display, not simulation logic
    started = time.perf_counter()
    report = analyze(
        paths, refs=refs, config=config,
        cache_path=None if args.no_cache else (args.cache or DEFAULT_CACHE),
        baseline_path=None if args.no_baseline else baseline_path)
    # detlint: ignore[D002] CLI wall-time display, not simulation logic
    elapsed = time.perf_counter() - started

    if args.update_baseline:
        updated = Baseline.from_findings(report.findings,
                                         previous=report.baseline)
        updated.save(baseline_path)
        print(f"analysis: baseline rewritten with "
              f"{len(updated.entries)} entr(y/ies) -> {baseline_path}")
        for fp in updated.unexplained():
            print(f"analysis: note missing for {fp} — add a "
                  f"justification before committing", file=sys.stderr)
        return 0

    if args.format == "text":
        text = report.to_text(show_suppressed=args.show_suppressed)
        if text:
            print(text)
        if args.output:
            Path(args.output).write_text(report.to_json() + "\n", "utf-8")
    else:
        payload = report.to_json() if args.format == "json" \
            else report.to_sarif()
        if (args.output or "-") == "-":
            print(payload)
        else:
            Path(args.output).write_text(payload + "\n", "utf-8")

    for fp in report.stale_baseline:
        print(f"analysis: stale baseline entry (no longer found): {fp}",
              file=sys.stderr)
    if report.baseline is not None:
        for fp in report.baseline.unexplained():
            print(f"analysis: baseline entry lacks a note: {fp}",
                  file=sys.stderr)

    summary = report.to_dict()["summary"]
    print(f"analysis: {summary['files_scanned']} files "
          f"({summary['cache_hits']} cached, "
          f"{summary['files_reparsed']} parsed) in {elapsed:.2f}s, "
          f"{summary['unsuppressed']} finding(s), "
          f"{summary['new']} new, "
          f"{summary['suppressed']} suppressed", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:  # e.g. output piped into `head`
        code = 0
    raise SystemExit(code)
