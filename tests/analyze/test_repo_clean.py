"""The repository self-check: VP-lint must pass over its own tree.

This is the CI gate in test form — `python -m repro.analyze src
examples` exits 0 — plus the false-positive property: every registered
platform's source module (the code VP-lint most directly targets)
lints clean, for any rule subset the analyzer is asked to run.
"""

import inspect
import pathlib

from hypothesis import given, settings, strategies as st

from repro.analyze import RULES, lint_file, lint_paths, rule_table
from repro.analyze.cli import main
from repro.platforms import registry

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_repo_tree_is_lint_clean():
    findings, files_checked = lint_paths(
        [REPO / "src", REPO / "examples"]
    )
    assert findings == [], "\n".join(f.render() for f in findings)
    assert files_checked > 100  # the whole tree, not a subset


def test_cli_self_check_exit_code(capsys):
    assert main([str(REPO / "src"), str(REPO / "examples")]) == 0
    assert "clean" in capsys.readouterr().out


def _platform_source_files():
    files = set()
    for name in registry.available_platforms():
        bundle = registry.get_platform(name)
        for fn in (bundle.factory, bundle.observe):
            source = inspect.getsourcefile(fn)
            if source is not None:
                files.add(pathlib.Path(source))
    return sorted(files)


@settings(max_examples=30, deadline=None)
@given(
    platform=st.sampled_from(sorted(registry.available_platforms())),
    select=st.one_of(
        st.none(),
        st.sets(st.sampled_from(sorted(RULES)), min_size=1).map(sorted),
    ),
)
def test_no_false_positives_on_registered_platforms(platform, select):
    """Zero findings on every registered platform's source, under any
    rule subset — selection must only ever *remove* findings."""
    bundle = registry.get_platform(platform)
    source = inspect.getsourcefile(bundle.factory)
    assert source is not None
    findings = lint_file(source, select=select)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_platform_sources_exist_and_are_covered():
    files = _platform_source_files()
    assert files, "no registered platforms resolved to source files"
    for path in files:
        assert path.exists()
        assert lint_file(path) == []


def test_rule_table_is_stable_and_documented():
    table = rule_table()
    codes = [row["code"] for row in table]
    assert codes == sorted(RULES)
    # Codes are never renumbered; a retired code leaves a gap.
    assert all(code == f"VP{int(code[2:]):03d}" for code in codes)
    assert codes[0] == "VP001"
    for row in table:
        assert row["summary"], f"{row['code']} has no summary"
        assert row["severity"] in ("error", "warning")
