"""Engine tests: suppression comments, path walking, parse errors."""

from __future__ import annotations

import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_paths, analyze_source, known_rule_ids
from repro.analysis.findings import SourceFile
from repro.analysis.rules import ALL_RULE_IDS

BAD_CLASS = """
import threading


class S:
    _GUARDED_BY = {"_x": "_lock"}

    def __init__(self):
        self._lock = threading.Lock()
        self._x = 0

    def bad(self):
        return self._x{trailer}
"""


def analyze_text(text, path="x.py", config=None):
    return analyze_source(
        SourceFile.parse(path, text), config or AnalysisConfig()
    )


class TestSuppressions:
    def test_line_ignore_filters_the_finding(self):
        assert analyze_text(BAD_CLASS.replace("{trailer}", "")) != []
        assert analyze_text(BAD_CLASS.replace(
            "{trailer}",
            "  # lint: ignore[lock-discipline] -- atomic sample",
        )) == []

    def test_line_ignore_is_rule_specific(self):
        # Ignoring an unrelated rule does not mask the finding.
        assert analyze_text(BAD_CLASS.replace(
            "{trailer}", "  # lint: ignore[wall-clock] -- wrong rule"
        )) != []

    def test_file_ignore_in_head(self):
        text = (
            "# lint: file-ignore[lock-discipline]\n"
            + BAD_CLASS.replace("{trailer}", "")
        )
        assert analyze_text(text) == []

    def test_file_ignore_must_be_in_head_lines(self):
        # Buried past the first 5 lines, a file-ignore has no effect.
        text = (
            "\n\n\n\n\n\n# lint: file-ignore[lock-discipline]\n"
            + BAD_CLASS.replace("{trailer}", "")
        )
        assert analyze_text(text) != []

    def test_ignore_on_def_line_covers_the_function(self):
        text = BAD_CLASS.replace("{trailer}", "").replace(
            "def bad(self):",
            "def bad(self):  # lint: ignore[lock-discipline] -- sampled",
        )
        assert analyze_text(text) == []


class TestAnalyzePaths:
    def test_walks_directories_and_reports_relative_paths(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "ok.py").write_text("x = 1\n")
        (pkg / "bad.py").write_text(BAD_CLASS.replace("{trailer}", ""))
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "junk.py").write_text("syntax error here(")
        findings = analyze_paths(["pkg"], root=tmp_path)
        assert [f.path for f in findings] == ["pkg/bad.py"]

    def test_parse_error_is_a_finding_not_a_skip(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        findings = analyze_paths([str(tmp_path / "broken.py")],
                                 root=tmp_path)
        assert len(findings) == 1
        assert findings[0].rule == "parse-error"

    def test_single_file_path(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text(BAD_CLASS.replace("{trailer}", ""))
        findings = analyze_paths([str(target)], root=tmp_path)
        assert [f.path for f in findings] == ["one.py"]


class TestRuleRegistry:
    def test_every_rule_id_unique_and_known(self):
        ids = list(ALL_RULE_IDS)
        assert len(ids) == len(set(ids))
        assert set(ids) < set(known_rule_ids())
        assert "parse-error" in known_rule_ids()

    def test_findings_render_with_location_and_rule(self):
        finding = analyze_text(BAD_CLASS.replace("{trailer}", ""))[0]
        rendered = finding.render()
        assert "x.py:" in rendered
        assert "[lock-discipline]" in rendered
        assert "(in S.bad)" in rendered
