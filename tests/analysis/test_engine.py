"""Analyzer front-end tests: the pragma rule, config and rule codes, the
report schema, the CLI, and the self-check that keeps the repo clean."""

import json
from pathlib import Path

import pytest

from repro.analysis import DetlintConfig, analyze, lint_source, load_config
from repro.analysis.__main__ import main
from repro.analysis.contracts import RULES, enabled_codes
from repro.analysis.contracts.report import REPORT_VERSION

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "detlint_cases.py"

DIRTY = "import itertools\n_ids = itertools.count(1)\n"


def lint(paths, config=None):
    return analyze(paths, refs=(), config=config, cache_path=None)


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """Run the CLI from an empty directory: no pyproject, refs, cache or
    baseline leak in from the repo checkout."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


# -- pragma suppression -------------------------------------------------------

def test_pragma_same_line_suppresses():
    src = "import itertools\n_ids = itertools.count(1)  # detlint: ignore[D001] legacy\n"
    (finding,) = lint_source(src)
    assert finding.suppressed


def test_pragma_comment_line_above_suppresses():
    src = ("import itertools\n"
           "# detlint: ignore[D001] — migrated in PR 9\n"
           "_ids = itertools.count(1)\n")
    (finding,) = lint_source(src)
    assert finding.suppressed


def test_pragma_bare_ignore_suppresses_all_codes():
    src = "import itertools\n_ids = itertools.count(1)  # detlint: ignore\n"
    (finding,) = lint_source(src)
    assert finding.suppressed


def test_pragma_wrong_code_does_not_suppress():
    src = "import itertools\n_ids = itertools.count(1)  # detlint: ignore[D004]\n"
    (finding,) = lint_source(src)
    assert not finding.suppressed


def test_pragma_multiple_codes():
    src = ("import time\n"
           "def f():\n"
           "    return time.time()  # detlint: ignore[D001,D002]\n")
    (finding,) = lint_source(src)
    assert finding.suppressed


def test_pragma_on_distant_line_does_not_suppress():
    src = ("# detlint: ignore[D001]\n"
           "import itertools\n"
           "_ids = itertools.count(1)\n")
    (finding,) = lint_source(src)
    assert not finding.suppressed


@pytest.mark.parametrize("code,body", [
    ("D002", "import time\n"
             "def f():\n"
             "    x = 1  # detlint: ignore[D002]\n"
             "    return time.time()\n"),
    ("C002", "def emit(registry):\n"
             "    x = 1  # detlint: ignore[C002]\n"
             "    registry.counter('x.total').inc()\n"),
], ids=["D002", "C002"])
def test_trailing_pragma_does_not_cover_next_line(tmp_path, code, body):
    # One pragma rule for both families: a trailing pragma on a code
    # line covers that line only, never the statement below it.
    (tmp_path / "m.py").write_text(body, "utf-8")
    (finding,) = lint([tmp_path], DetlintConfig()).findings
    assert finding.code == code and not finding.suppressed


# -- config -------------------------------------------------------------------

def test_load_config_reads_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.detlint]\nexclude = ['vendored']\n"
        "select = ['D001']\nignore = ['D004']\n")
    cfg = load_config(tmp_path)
    assert cfg.exclude == ("vendored",)
    assert cfg.select == ("D001",)
    assert cfg.ignore == ("D004",)


def test_load_config_searches_parents(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.detlint]\nexclude = ['deep']\n")
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    assert load_config(nested).exclude == ("deep",)


def test_load_config_defaults_without_table(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    assert load_config(tmp_path) == DetlintConfig()


def test_config_select_and_ignore_filter_rules():
    cfg = DetlintConfig(select=("D001", "C002"), ignore=("C002",))
    # D000 (parse errors) reports unless ignored by name.
    assert enabled_codes(cfg) == ("D000", "D001")
    assert enabled_codes(DetlintConfig(ignore=("D000", "C004"))) == tuple(
        c for c in RULES if c not in ("D000", "C004"))


def test_config_unknown_code_raises():
    for cfg in (DetlintConfig(select=("D999",)),
                DetlintConfig(ignore=("C999",))):
        with pytest.raises(ValueError, match="[DC]999"):
            enabled_codes(cfg)


def test_exclude_skips_files(tmp_path):
    # Excluded files are still scanned (the C-rules read them as
    # evidence) but report no D-findings.
    bad = tmp_path / "vendored" / "bad.py"
    bad.parent.mkdir()
    bad.write_text(DIRTY)
    report = lint([tmp_path], DetlintConfig(exclude=("vendored",)))
    assert report.files_scanned == 1
    assert report.findings == []


# -- JSON report schema -------------------------------------------------------

def test_json_report_schema(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY +
                      "_ok = itertools.count(1)  # detlint: ignore[D001]\n")
    payload = lint([target]).to_dict()
    assert payload["version"] == REPORT_VERSION == 2
    assert payload["tool"] == "repro.analysis"
    assert payload["summary"] == {
        "files_scanned": 1, "cache_hits": 0, "files_reparsed": 1,
        "findings": 2, "unsuppressed": 1, "suppressed": 1, "new": 1,
        "by_code": {"D001": 1},
    }
    unsuppressed = [f for f in payload["findings"] if not f["suppressed"]]
    (finding,) = unsuppressed
    assert set(finding) == {"code", "severity", "path", "line", "col",
                            "message", "hint", "key", "suppressed",
                            "fingerprint"}
    assert finding["code"] == "D001"
    assert finding["line"] == 2
    assert finding["fingerprint"] == f"D001:{target.as_posix()}:<module>"
    # Round-trips through json.
    assert json.loads(lint([target]).to_json())["version"] == 2


def test_exit_code_semantics(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 5\n")
    assert lint([clean]).exit_code == 0
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    assert lint([dirty]).exit_code == 1
    broken = tmp_path / "broken.py"
    broken.write_text("def (:\n")
    report = lint([broken])
    assert report.exit_code == 1
    # Parse failures surface as D000 findings, not out-of-band errors.
    assert [f.code for f in report.findings] == ["D000"]


# -- CLI ----------------------------------------------------------------------

def test_cli_clean_run_exits_zero(in_tmp, capsys):
    mod = in_tmp / "ok.py"
    mod.write_text("X = 1\n")
    assert main([str(mod), "--no-config"]) == 0
    assert "0 finding(s)" in capsys.readouterr().err


def test_cli_findings_exit_one_and_json(in_tmp, capsys):
    mod = in_tmp / "bad.py"
    mod.write_text(DIRTY)
    out_json = in_tmp / "report.json"
    assert main([str(mod), "--no-config", "--output", str(out_json)]) == 1
    text = capsys.readouterr().out
    assert "D001" in text and "hint:" in text
    payload = json.loads(out_json.read_text())
    assert payload["summary"]["unsuppressed"] == 1
    assert main([str(mod), "--no-config", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["summary"]["new"] == 1


def test_cli_select_limits_rules(in_tmp):
    mod = in_tmp / "bad.py"
    mod.write_text(DIRTY + "import time\ndef f():\n    return time.time()\n")
    assert main([str(mod), "--no-config", "--select", "D002"]) == 1
    assert main([str(mod), "--no-config", "--select", "D004"]) == 0


def test_cli_missing_path_and_bad_code(in_tmp, capsys):
    assert main([str(in_tmp / "nope.py"), "--no-config"]) == 2
    mod = in_tmp / "ok.py"
    mod.write_text("X = 1\n")
    assert main([str(mod), "--no-config", "--select", "D999"]) == 2
    assert "D999" in capsys.readouterr().err


@pytest.mark.parametrize("flags,pyproject", [
    (["--select", "C999"], None),
    (["--ignore", "C999"], None),
    (["--ignore", "D999"], None),
    ([], "[tool.detlint]\nselect = ['C999']\n"),
    ([], "[tool.detlint]\nignore = ['D999']\n"),
], ids=["select", "ignore-C", "ignore-D", "config-select", "config-ignore"])
def test_cli_unknown_code_is_usage_error(in_tmp, capsys, flags, pyproject):
    if pyproject:
        (in_tmp / "pyproject.toml").write_text(pyproject, "utf-8")
    (in_tmp / "ok.py").write_text("X = 1\n")
    assert main(["ok.py", *flags]) == 2
    assert "999" in capsys.readouterr().err


def test_cli_ignore_filters_both_families(in_tmp, capsys):
    assert main([str(FIXTURES), "--no-config", "--no-baseline",
                 "--format", "json", "--ignore", "D002,C004"]) == 1
    codes = {f["code"] for f in json.loads(capsys.readouterr().out)
             ["findings"]}
    assert "D002" not in codes and "C004" not in codes
    assert {"D001", "C001"} <= codes


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("D000", "D001", "D002", "D003", "D004", "D005", "D006",
                 "C001", "C002", "C003", "C004"):
        assert code in out


# -- the fixture + the self-check ---------------------------------------------

def test_fixture_triggers_every_rule():
    findings = lint_source(FIXTURE.read_text(), FIXTURE.as_posix())
    fired = {f.code for f in findings if not f.suppressed}
    assert fired == {"D001", "D002", "D003", "D004", "D005", "D006"}
    # The sanctioned patterns at the bottom of the fixture stay silent:
    # nothing fires at or after the clean-counterpart function.
    clean_start = FIXTURE.read_text().splitlines().index(
        "def sanctioned_patterns(sim, rngs):") + 1
    assert all(f.line < clean_start for f in findings)


def test_detlint_self_check_repo_is_clean(repo_report):
    """The acceptance gate: the default invocation reports zero
    unsuppressed D-findings under the project config, over
    src/benchmarks/examples and none under tests/."""
    report = repo_report()
    d_paths = {f.path for f in report.findings if f.code.startswith("D")}
    assert d_paths and not any("tests/" in p for p in d_paths)
    offenders = "\n".join(f.render() for f in report.unsuppressed
                          if f.code.startswith("D"))
    assert not offenders, f"determinism findings:\n{offenders}"
    # Every suppression in the tree carries its pragma deliberately; the
    # inventory is pinned so a new pragma is an explicit decision here:
    # - sim/ids.py D001: the documented no-world fallback sequencer;
    # - analysis/__main__.py D002: CLI elapsed-time display;
    # - scale/runner.py D006: the sanctioned process-pool call site;
    # - C003 on loops that are supervision/drain/failover passes, not
    #   retries of one failed call.
    sanctioned = {("ids.py", "D001"), ("__main__.py", "D002"),
                  ("runner.py", "D006"), ("failover.py", "C003"),
                  ("faulttol.py", "C003"), ("ingest.py", "C003"),
                  ("service.py", "C003")}
    suppressed = [f for f in report.findings if f.suppressed]
    assert suppressed, "expected the sanctioned pragmas to be exercised"
    for f in suppressed:
        assert any(f.path.endswith(name) and f.code == code
                   for name, code in sanctioned), f.render()


# -- multi-line statements ----------------------------------------------------

def test_pragma_on_stmt_first_line_covers_continuation_lines():
    src = ("import time\n"
           "def f():\n"
           "    return (  # detlint: ignore[D002] host clock OK in tooling\n"
           "        time.time())\n")
    (finding,) = lint_source(src)
    assert finding.line == 4
    assert finding.suppressed


def test_comment_above_wrapped_statement_covers_it():
    src = ("import time\n"
           "def f():\n"
           "    # detlint: ignore[D002] host clock OK in tooling\n"
           "    return (\n"
           "        time.time())\n")
    (finding,) = lint_source(src)
    assert finding.line == 5
    assert finding.suppressed


def test_wrong_code_on_stmt_first_line_does_not_suppress():
    src = ("import time\n"
           "def f():\n"
           "    return (  # detlint: ignore[D004]\n"
           "        time.time())\n")
    (finding,) = lint_source(src)
    assert not finding.suppressed


# -- parse errors as findings (D000) ------------------------------------------

def test_syntax_error_is_a_d000_finding(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n    pass\n", "utf-8")
    (tmp_path / "fine.py").write_text(DIRTY, "utf-8")
    report = lint([tmp_path])
    assert report.files_scanned == 2
    codes = sorted(f.code for f in report.findings)
    assert codes == ["D000", "D001"]
    d000 = next(f for f in report.findings if f.code == "D000")
    assert d000.path.endswith("broken.py")
    assert d000.line == 1
    assert "does not parse" in d000.message
    assert report.exit_code == 1


def test_d000_locates_error_line(tmp_path):
    (tmp_path / "late.py").write_text("x = 1\ny = 2\nz = (\n", "utf-8")
    report = lint([tmp_path])
    (finding,) = report.findings
    assert finding.code == "D000"
    assert finding.line == 3
