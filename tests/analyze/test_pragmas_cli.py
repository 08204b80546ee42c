"""Pragma suppression, reporters, and CLI exit-code contract."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analyze import lint_source, render_json, render_text, summarize
from repro.analyze.cli import main
from repro.analyze.linter import iter_python_files
from repro.analyze.reporters import REPORT_SCHEMA_VERSION
from repro.analyze.rules import RULES

REPO = pathlib.Path(__file__).resolve().parents[2]
CORPUS = pathlib.Path(__file__).parent / "fixtures" / "violations.py"


def lint_snippet(snippet, **kwargs):
    return lint_source(textwrap.dedent(snippet), path="platform.py", **kwargs)


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------

def test_line_pragma_suppresses_named_code():
    assert lint_snippet(
        "t = time.time()  # vp-lint: disable=VP005 - test fixture\n"
    ) == []


def test_line_pragma_only_covers_its_own_line():
    findings = lint_snippet(
        """
        a = time.time()  # vp-lint: disable=VP005 - here only
        b = time.time()
        """
    )
    assert [f.line for f in findings] == [3]


def test_line_pragma_wrong_code_does_not_suppress():
    findings = lint_snippet(
        "t = time.time()  # vp-lint: disable=VP004\n"
    )
    assert [f.code for f in findings] == ["VP005"]


def test_line_pragma_multiple_codes_and_all():
    assert lint_snippet(
        "s = Signal(sim, 'x', 0); p = sim.spawn(g())"
        "  # vp-lint: disable=VP001,VP002\n"
    ) == []
    assert lint_snippet(
        "t = time.time()  # vp-lint: disable=all\n"
    ) == []


def test_file_pragma_suppresses_everywhere():
    assert lint_snippet(
        """
        # vp-lint: disable-file=VP005
        a = time.time()

        def later():
            return time.perf_counter()
        """
    ) == []


def test_next_line_pragma_suppresses_following_line():
    assert lint_snippet(
        """
        # vp-lint: disable-next-line=VP005 - stopwatch fixture
        t = time.time()
        """
    ) == []


def test_next_line_pragma_covers_only_the_next_line():
    findings = lint_snippet(
        """
        # vp-lint: disable-next-line=VP005
        a = time.time()
        b = time.time()
        """
    )
    assert [f.line for f in findings] == [4]


def test_next_line_pragma_wrong_code_does_not_suppress():
    findings = lint_snippet(
        """
        # vp-lint: disable-next-line=VP004
        t = time.time()
        """
    )
    assert [f.code for f in findings] == ["VP005"]


def test_next_line_pragma_composes_with_line_pragma():
    # Both scopes anchor on the same physical line: their code sets
    # union, so each can cover a different rule.
    assert lint_snippet(
        """
        # vp-lint: disable-next-line=VP005
        t = time.time(); s = Signal(sim, 'x', 0)  # vp-lint: disable=VP001
        """
    ) == []


def test_next_line_pragma_does_not_leak_into_file_scope():
    findings = lint_snippet(
        """
        # vp-lint: disable-next-line=all
        a = time.time()

        def later():
            return time.perf_counter()
        """
    )
    assert [f.line for f in findings] == [6]


def test_next_line_pragma_supports_all_and_multiple_codes():
    assert lint_snippet(
        """
        # vp-lint: disable-next-line=VP001,VP005
        t = time.time(); s = Signal(sim, 'x', 0)
        """
    ) == []
    assert lint_snippet(
        """
        # vp-lint: disable-next-line=all
        t = time.time(); s = Signal(sim, 'x', 0)
        """
    ) == []


MULTILINE_VP009 = """
    class Part:
        STATE_FIELDS = ()

        def tick(self):
            self.cache = (
                1, 2,
            )
    """


def test_next_line_pragma_before_multiline_statement():
    # The anchor is the statement's *first* physical line, exactly as
    # the line scope would see it.
    assert [f.code for f in lint_snippet(MULTILINE_VP009)] == ["VP009"]
    assert lint_snippet(MULTILINE_VP009.replace(
        "        self.cache = (",
        "        # vp-lint: disable-next-line=VP009 - derived, not run state\n"
        "            self.cache = (",
    )) == []


def test_multiline_statement_pragma_anchors_on_first_line():
    assert lint_snippet(MULTILINE_VP009.replace(
        "self.cache = (",
        "self.cache = (  # vp-lint: disable=VP009 - derived, not run state",
    )) == []


# ---------------------------------------------------------------------------
# select / ignore / severity filtering
# ---------------------------------------------------------------------------

def test_select_restricts_rules():
    snippet = "t = time.time()\nsig = Signal(sim, 'x', 0)\n"
    only_vp001 = lint_snippet(snippet, select=["VP001"])
    assert [f.code for f in only_vp001] == ["VP001"]


def test_ignore_drops_rules():
    snippet = "t = time.time()\nsig = Signal(sim, 'x', 0)\n"
    findings = lint_snippet(snippet, ignore=["vp005"])
    assert [f.code for f in findings] == ["VP001"]


def test_unknown_select_code_raises():
    with pytest.raises(ValueError, match="VP999"):
        lint_snippet("x = 1\n", select=["VP999"])


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------

def test_text_report_lists_findings_and_summary():
    findings = lint_snippet("t = time.time()\n")
    text = render_text(findings, files_checked=1)
    assert "platform.py:1:5: VP005 [error]" in text
    assert "vp-lint: 1 finding(s) in 1 file(s) (VP005: 1)" in text
    assert render_text([], files_checked=3) == "vp-lint: 3 file(s) clean"


def test_json_report_schema():
    findings = lint_snippet("t = time.time()\n")
    payload = json.loads(render_json(findings, files_checked=1))
    assert payload["schema"] == REPORT_SCHEMA_VERSION
    assert payload["tool"] == "vp-lint"
    assert payload["files_checked"] == 1
    assert payload["summary"] == summarize(findings)
    (entry,) = payload["findings"]
    assert entry["code"] == "VP005"
    assert entry["severity"] == "error"
    assert entry["line"] == 1
    # The embedded rule table lets dashboards resolve codes offline.
    assert any(row["code"] == "VP005" for row in payload["rules"])


# ---------------------------------------------------------------------------
# CLI: exit codes and outputs
# ---------------------------------------------------------------------------

def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    assert "1 file(s) clean" in capsys.readouterr().out


def test_cli_exit_one_on_corpus(capsys):
    assert main([str(CORPUS)]) == 1
    out = capsys.readouterr().out
    assert "VP001" in out and "VP010" in out


def test_cli_min_severity_error_drops_warnings(tmp_path, capsys):
    (tmp_path / "warn.py").write_text(
        "class Part:\n"
        "    STATE_FIELDS = ()\n"
        "    def tick(self):\n"
        "        self.cache = 1\n",
        encoding="utf-8",
    )
    assert main([str(tmp_path)]) == 1
    assert main([str(tmp_path), "--min-severity", "error"]) == 0
    capsys.readouterr()


def test_cli_json_output_artifact(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([str(CORPUS), "--format", "json", "--json-output", str(report)])
    assert code == 1
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(report.read_text(encoding="utf-8"))
    assert file_payload == stdout_payload
    assert file_payload["summary"]["total"] > 0


def test_cli_select_and_ignore(capsys):
    assert main([str(CORPUS), "--select", "VP010"]) == 1
    out = capsys.readouterr().out
    assert "VP010" in out and "VP001" not in out
    assert main([str(CORPUS), "--ignore", ",".join(sorted(RULES))]) == 0
    capsys.readouterr()


def test_cli_usage_error_on_missing_path(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["does-not-exist-anywhere"])
    assert exc.value.code == 2
    assert "vp-lint: error" in capsys.readouterr().err


def test_cli_usage_error_on_unknown_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(CORPUS), "--select", "VP999"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_module_entry_point_subprocess():
    """`python -m repro.analyze` is the documented invocation."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.analyze", str(CORPUS)],
        capture_output=True, text=True, cwd=str(REPO),
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.returncode == 1
    assert "VP001" in result.stdout


def test_iter_python_files_deduplicates(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    files = iter_python_files([tmp_path, tmp_path / "a.py"])
    assert files == [tmp_path / "a.py"]
