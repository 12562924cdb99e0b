"""The analysis engine: parse, run every rule, apply suppressions.

Rules yield raw findings; the engine owns the escape-hatch policy so
each rule stays a pure detector:

* per-line ``# lint: ignore[rule]`` and head-of-file
  ``# lint: file-ignore[rule]`` comments are filtered here;
* files that fail to parse surface as a ``parse-error`` finding (never
  a silent skip — an unparseable file is an unanalysed file);
* baseline matching happens one layer up, in the CLI, so the engine's
  output is the *complete* truth about the tree.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, SourceFile
from repro.analysis.rules import ALL_RULE_IDS, RULE_MODULES

PARSE_ERROR = "parse-error"

#: Directory names never descended into.
_SKIP_DIRS = ("__pycache__", ".git", ".pytest_cache")


# census: outside input: the --list-rules flag
def known_rule_ids() -> tuple[str, ...]:
    """Every rule id the engine can emit (``parse-error`` included)."""
    return ALL_RULE_IDS + (PARSE_ERROR,)


def analyze_source(src: SourceFile, config: AnalysisConfig) -> list[Finding]:
    """Run every rule over one parsed file, minus suppressed findings."""
    findings: list[Finding] = []
    for module in RULE_MODULES:
        for finding in module.check(src, config):
            if not src.ignored(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _python_files(paths: Iterable[str], root: Path) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file():
            yield path
        elif path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield Path(dirpath) / name


def analyze_paths(
    paths: Iterable[str],
    root: "Path | str",
    config: "AnalysisConfig | None" = None,
) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths``.

    ``root`` anchors the relative POSIX paths findings report (and
    baselines match against), independent of the caller's cwd.
    """
    root = Path(root).resolve()
    config = config or AnalysisConfig()
    findings: list[Finding] = []
    for file in _python_files(paths, root):
        try:
            rel = file.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = file.as_posix()
        text = file.read_text(encoding="utf-8")
        try:
            src = SourceFile.parse(rel, text)
        except SyntaxError as exc:
            findings.append(Finding(
                rule=PARSE_ERROR,
                path=rel,
                line=exc.lineno or 1,
                symbol="<module>",
                message=f"file does not parse: {exc.msg}",
            ))
            continue
        findings.extend(analyze_source(src, config))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
