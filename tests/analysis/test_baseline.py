"""Baseline tests: loading, validation, matching, staleness — plus the
meta-test that keeps the repo's own baseline honest."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.engine import analyze_paths
from repro.analysis.findings import Finding

REPO_ROOT = Path(__file__).resolve().parents[2]


def finding(rule="lock-discipline", path="src/a.py", symbol="C.m"):
    return Finding(rule=rule, path=path, symbol=symbol, line=10,
                   message="msg")


class TestLoading:
    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "nope.toml")
        assert baseline.entries == ()

    def test_justification_required(self, tmp_path):
        target = tmp_path / "b.toml"
        target.write_text(
            '[[suppression]]\nrule = "r"\npath = "p"\nsymbol = "s"\n'
        )
        with pytest.raises(BaselineError, match="justification"):
            Baseline.load(target)

    def test_blank_justification_rejected(self, tmp_path):
        target = tmp_path / "b.toml"
        target.write_text(
            '[[suppression]]\nrule = "r"\npath = "p"\nsymbol = "s"\n'
            'justification = "  "\n'
        )
        with pytest.raises(BaselineError):
            Baseline.load(target)

    def test_duplicate_entries_rejected(self, tmp_path):
        entry = (
            '[[suppression]]\nrule = "r"\npath = "p"\nsymbol = "s"\n'
            'justification = "because"\n'
        )
        target = tmp_path / "b.toml"
        target.write_text(entry + entry)
        with pytest.raises(BaselineError, match="duplicate"):
            Baseline.load(target)


class TestMatching:
    def make(self, tmp_path, *triples):
        target = tmp_path / "b.toml"
        target.write_text("".join(
            f'[[suppression]]\nrule = "{r}"\npath = "{p}"\n'
            f'symbol = "{s}"\njustification = "reviewed"\n'
            for r, p, s in triples
        ))
        return Baseline.load(target)

    def test_matches_on_rule_path_symbol_not_line(self, tmp_path):
        baseline = self.make(
            tmp_path, ("lock-discipline", "src/a.py", "C.m")
        )
        # Same identity, different line: still covered (line drift must
        # not churn the baseline).
        shifted = Finding(rule="lock-discipline", path="src/a.py",
                          symbol="C.m", line=999, message="m")
        new, used, stale = baseline.split([shifted])
        assert new == [] and len(used) == 1 and stale == []

    def test_uncovered_finding_is_new(self, tmp_path):
        baseline = self.make(
            tmp_path, ("lock-discipline", "src/a.py", "C.m")
        )
        other = finding(symbol="C.other")
        new, _, _ = baseline.split([finding(), other])
        assert new == [other]

    def test_unmatched_entry_is_stale(self, tmp_path):
        baseline = self.make(
            tmp_path,
            ("lock-discipline", "src/a.py", "C.m"),
            ("wall-clock", "src/gone.py", "old_fn"),
        )
        new, used, stale = baseline.split([finding()])
        assert new == []
        assert [e.symbol for e in used] == ["C.m"]
        assert [e.symbol for e in stale] == ["old_fn"]


class TestRepoBaseline:
    """The meta-tests that gate the tree itself."""

    def test_tree_is_clean_against_baseline(self):
        """Every finding in src/repro is baselined, and every baseline
        entry still matches a finding (no stale suppressions)."""
        findings = analyze_paths(["src/repro"], root=REPO_ROOT)
        baseline = Baseline.load(REPO_ROOT / "analysis" / "baseline.toml")
        new, _, stale = baseline.split(findings)
        assert new == [], (
            "un-baselined findings:\n"
            + "\n".join(f.render() for f in new)
        )
        assert stale == [], (
            "stale baseline entries (fix merged? delete them):\n"
            + "\n".join(f"{e.rule} / {e.path} / {e.symbol}" for e in stale)
        )

    def test_every_entry_has_a_substantive_justification(self):
        """Vacuous while the repo baseline is empty (it is): an entry
        added later must say why."""
        baseline = Baseline.load(REPO_ROOT / "analysis" / "baseline.toml")
        for entry in baseline.entries:
            assert len(entry.justification.split()) >= 5, (
                f"justify {entry.symbol} properly, not with "
                f"{entry.justification!r}"
            )
