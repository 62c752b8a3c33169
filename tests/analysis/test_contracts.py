"""Analyzer tests: facts, both rule families on the seeded fixture
trees in one pass, the incremental cache, the baseline ratchet, SARIF,
fingerprints, and the CLI."""

import json
import time
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.contracts import (Baseline, DetlintConfig, Report,
                                      analyze, build_project, extract_facts,
                                      run_rules, template_matches)
from repro.analysis.contracts.facts import ANY_SEGMENT

REPO_ROOT = Path(__file__).resolve().parents[2]
ALL_FIXTURES = Path(__file__).parent / "fixtures"
FIXTURES = ALL_FIXTURES / "contracts_demo"


def fixture_findings(select=()):
    return analyze([FIXTURES], refs=(), cache_path=None,
                   config=DetlintConfig(select=select)).findings


# -- template matching --------------------------------------------------------

@pytest.mark.parametrize("pattern,topic,expected", [
    (["telemetry", "*", "xrd"], ["telemetry", "site-a", "xrd"], True),
    (["telemetry", "#"], ["telemetry", "a", "b", "c"], True),
    (["alerts", "#"], ["telemetry", "a"], False),
    # A placeholder topic segment may take any value -> may-match.
    (["telemetry", "site-a", "xrd"], ["telemetry", ANY_SEGMENT, "xrd"], True),
    # ...but cannot stretch across segment counts without a '#'.
    (["telemetry", "xrd"], ["telemetry", ANY_SEGMENT, "xrd"], False),
    # A placeholder pattern segment matches exactly one topic segment.
    ([ANY_SEGMENT, "#"], ["anything", "a", "b"], True),
    ([ANY_SEGMENT], ["a", "b"], False),
])
def test_template_matches(pattern, topic, expected):
    assert template_matches(pattern, topic) is expected


# -- fact extraction ----------------------------------------------------------

def test_fstring_topic_extracts_placeholder_segments():
    src = ("def go(bus, site, msg):\n"
           "    yield from bus.publish('main', site,"
           " f'telemetry.{site}.xrd', msg)\n")
    facts = extract_facts(src, "m.py", "m")
    (pub,) = facts.publishes
    assert pub.segments == ["telemetry", ANY_SEGMENT, "xrd"]


def test_metric_read_accessor_marks_fact_as_read():
    src = ("def report(registry):\n"
           "    emitted = registry.counter('a.total')\n"
           "    emitted.inc()\n"
           "    return registry.counter('a.total').value\n")
    facts = extract_facts(src, "m.py", "m")
    reads = sorted(m.line for m in facts.metrics if m.read)
    emits = sorted(m.line for m in facts.metrics if not m.read)
    assert reads == [4] and emits == [2]


# -- the seeded fixture tree --------------------------------------------------

def test_fixture_tree_seeds_every_rule():
    findings = fixture_findings()
    keys = {(f.code, f.key) for f in findings}
    assert ("C001", "pub:commands.site-a.start") in keys
    assert ("C001", "sub:alerts.#") in keys
    assert ("C002", "collision:demo.mixed_kind") in keys
    assert ("C002", "unread:demo.orphan_total") in keys
    assert ("C003", "nodeadline:call_without_deadline") in keys
    assert ("C003", "retry:bare_retry") in keys
    assert any(code == "C004" and key.endswith("Postings")
               for code, key in keys)


def test_fixture_correct_twins_stay_clean():
    text = " ".join(f.key + f.message for f in fixture_findings())
    assert "telemetry" not in text          # matched pub/sub pair
    assert "consumed_total" not in text     # read metric
    assert "call_with_deadline" not in text
    assert "bounded_scan" not in text       # handler re-raises
    assert "TallySet" not in text           # has merge_from


def test_select_narrows_rules():
    findings = fixture_findings(select=("C004",))
    assert findings and all(f.code in ("D000", "C004") for f in findings)


def test_one_pass_fires_every_rule_family():
    # One config-free run: D-rules from detlint_cases.py, C-rules from
    # contracts_demo/, one parse per file.
    report = analyze([ALL_FIXTURES], refs=(), cache_path=None,
                     config=DetlintConfig())
    assert report.files_reparsed == report.files_scanned
    assert {f.code for f in report.unsuppressed} == {
        "D001", "D002", "D003", "D004", "D005", "D006",
        "C001", "C002", "C003", "C004"}


def test_fingerprints_do_not_depend_on_invocation(tmp_path, monkeypatch):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "m.py").write_text(
        "import time\n"
        "def emit(registry):\n"
        "    registry.counter('x.lonely_total').inc()\n"
        "    return time.time()\n", "utf-8")
    monkeypatch.chdir(tmp_path)
    runs = [analyze([root], refs=(), cache_path=None,
                    config=DetlintConfig()).findings
            for root in ("d", Path.cwd() / "d")]
    assert [f.fingerprint for f in runs[0]] == \
        [f.fingerprint for f in runs[1]] == \
        ["C002:d/m.py:unread:x.lonely_total", "D002:d/m.py:emit"]


# -- pragma suppression -------------------------------------------------------

def test_pragma_suppresses_contract_finding(tmp_path):
    (tmp_path / "m.py").write_text(
        "def emit(registry):\n"
        "    registry.counter('x.total').inc()"
        "  # detlint: ignore[C002] write-only audit tally\n", "utf-8")
    report = analyze([tmp_path], refs=(), cache_path=None)
    (finding,) = report.findings
    assert finding.suppressed
    assert report.exit_code == 0


def test_pragma_on_first_line_covers_wrapped_statement(tmp_path):
    # The finding lands on the continuation line holding the factory
    # call; the pragma sits on the statement's first line.
    (tmp_path / "m.py").write_text(
        "def emit(registry):\n"
        "    tally = (  # detlint: ignore[C002] dashboard-only\n"
        "        registry.counter('x.lonely_total'))\n"
        "    tally.inc()\n", "utf-8")
    report = analyze([tmp_path], refs=(), cache_path=None)
    (finding,) = report.findings
    assert finding.line == 3
    assert finding.suppressed


def test_comment_above_wrapped_statement_covers_it(tmp_path):
    (tmp_path / "m.py").write_text(
        "def emit(registry):\n"
        "    # detlint: ignore[C002] dashboard-only\n"
        "    tally = (\n"
        "        registry.counter('x.lonely_total'))\n"
        "    tally.inc()\n", "utf-8")
    report = analyze([tmp_path], refs=(), cache_path=None)
    (finding,) = report.findings
    assert finding.line == 4
    assert finding.suppressed


# -- incremental cache --------------------------------------------------------

def test_cache_warm_run_parses_nothing(tmp_path):
    cache = tmp_path / "cache.json"
    cold = build_project([ALL_FIXTURES], cache_path=cache)
    assert cold.files_reparsed == cold.files_scanned > 0
    warm = build_project([ALL_FIXTURES], cache_path=cache)
    assert warm.files_reparsed == 0
    assert warm.cache_hits == warm.files_scanned == cold.files_scanned
    # Same findings either way — the D-findings come from cached facts.
    cold_findings, warm_findings = run_rules(cold), run_rules(warm)
    assert warm_findings == cold_findings
    assert {f.code for f in warm_findings} >= {"D001", "D006", "C001"}


def test_cache_reparses_only_changed_file(tmp_path):
    src_dir = tmp_path / "proj"
    src_dir.mkdir()
    (src_dir / "a.py").write_text("A = 1\n", "utf-8")
    (src_dir / "b.py").write_text("B = 2\n", "utf-8")
    cache = tmp_path / "cache.json"
    build_project([src_dir], cache_path=cache)
    (src_dir / "a.py").write_text("A = 3\n", "utf-8")
    again = build_project([src_dir], cache_path=cache)
    assert again.files_reparsed == 1 and again.cache_hits == 1


def test_warm_full_tree_run_is_subsecond(repo_report):
    repo_report()     # fills the session cache unless a test already did
    started = time.perf_counter()
    report = repo_report()      # default invocation: src + refs, D and C
    assert time.perf_counter() - started < 1.0
    assert report.files_reparsed == 0
    assert report.cache_hits == report.files_scanned > 200


# -- baseline ratchet ---------------------------------------------------------

def test_baseline_absorbs_known_findings_and_flags_new(tmp_path):
    findings = fixture_findings()
    baseline = Baseline.from_findings(
        findings, notes={f.fingerprint: "seeded fixture debt"
                         for f in findings})
    path = tmp_path / "baseline.json"
    baseline.save(path)
    report = analyze([FIXTURES], refs=(), cache_path=None,
                               baseline_path=path)
    assert report.new_findings == []
    assert report.exit_code == 0
    assert report.baseline.unexplained() == []
    # Dropping one entry makes exactly that finding "new" again.
    shrunk = Baseline.load(path)
    victim = sorted(shrunk.entries)[0]
    del shrunk.entries[victim]
    shrunk.save(path)
    report = analyze([FIXTURES], refs=(), cache_path=None,
                               baseline_path=path)
    assert [f.fingerprint for f in report.new_findings] == [victim]
    assert report.exit_code == 1


def test_baseline_reports_stale_and_unexplained_entries(tmp_path):
    findings = fixture_findings()
    baseline = Baseline.from_findings(findings)
    baseline.entries["C999:gone.py:x"] = {
        "fingerprint": "C999:gone.py:x", "code": "C999", "path": "gone.py",
        "key": "x", "severity": "warn", "note": "historical"}
    path = tmp_path / "baseline.json"
    baseline.save(path)
    report = analyze([FIXTURES], refs=(), cache_path=None,
                               baseline_path=path)
    assert report.stale_baseline == ["C999:gone.py:x"]
    assert len(report.baseline.unexplained()) == len(findings)


def test_update_baseline_preserves_existing_notes(tmp_path):
    findings = fixture_findings()
    first = Baseline.from_findings(
        findings, notes={findings[0].fingerprint: "keep me"})
    refreshed = Baseline.from_findings(findings, previous=first)
    assert refreshed.entries[findings[0].fingerprint]["note"] == "keep me"


def test_committed_baseline_has_no_unexplained_entries():
    baseline = Baseline.load(REPO_ROOT / "analysis_baseline.json")
    assert baseline.entries, "committed ratchet should exist"
    assert baseline.unexplained() == []


# -- SARIF --------------------------------------------------------------------

def test_sarif_output_shape():
    report = Report(findings=fixture_findings())
    sarif = json.loads(report.to_sarif())
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert {"C001", "C002", "C003", "C004"} <= set(rule_ids)
    assert len(run["results"]) == len(report.unsuppressed)
    for result in run["results"]:
        assert result["baselineState"] == "new"
        assert result["level"] in ("error", "warning")
        assert result["partialFingerprints"]["contractKey/v1"]


def test_sarif_marks_baselined_results_unchanged(tmp_path):
    findings = fixture_findings()
    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings[:1]).save(path)
    report = analyze([FIXTURES], refs=(), cache_path=None,
                               baseline_path=path)
    states = {r["partialFingerprints"]["contractKey/v1"]:
              r["baselineState"]
              for r in json.loads(report.to_sarif())["runs"][0]["results"]}
    assert states[findings[0].fingerprint] == "unchanged"
    assert sorted(set(states.values())) == ["new", "unchanged"]


# -- CLI ----------------------------------------------------------------------

def test_cli_exits_nonzero_on_seeded_fixture(tmp_path, capsys):
    code = main([str(FIXTURES), "--no-baseline",
                 "--cache", str(tmp_path / "c.json"), "--refs", ""])
    assert code == 1
    out = capsys.readouterr().out
    assert "C001" in out and "C004" in out


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    clean = tmp_path / "proj"
    clean.mkdir()
    (clean / "m.py").write_text("def f():\n    return 1\n", "utf-8")
    code = main([str(clean), "--no-baseline", "--no-cache",
                 "--refs", ""])
    assert code == 0


def test_cli_json_and_sarif_outputs(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    main([str(FIXTURES), "--no-baseline", "--no-cache",
          "--refs", "", "--format", "json", "--output", str(out_json)])
    data = json.loads(out_json.read_text("utf-8"))
    assert data["summary"]["findings"] > 0
    out_sarif = tmp_path / "report.sarif"
    main([str(FIXTURES), "--no-baseline", "--no-cache",
          "--refs", "", "--format", "sarif", "--output", str(out_sarif)])
    sarif = json.loads(out_sarif.read_text("utf-8"))
    assert sarif["version"] == "2.1.0"


def test_cli_unknown_path_is_usage_error(capsys):
    assert main(["definitely/not/here"]) == 2


def test_cli_update_baseline_roundtrip(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "m.py").write_text(
        "def emit(registry):\n"
        "    registry.counter('z.total').inc()\n", "utf-8")
    baseline = tmp_path / "baseline.json"
    assert main([str(proj), "--no-cache", "--refs", "",
                 "--baseline", str(baseline)]) == 1
    assert main([str(proj), "--no-cache", "--refs", "",
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    assert main([str(proj), "--no-cache", "--refs", "",
                 "--baseline", str(baseline)]) == 0


# -- the repo's own contract hygiene ------------------------------------------

def test_repo_tree_has_no_new_findings(repo_report):
    report = repo_report()
    assert report.new_findings == []
    assert report.stale_baseline == []
