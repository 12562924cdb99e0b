"""Baseline suppressions: accepted findings, each with a justification.

The baseline (``analysis/baseline.toml``) is the list of findings the
project has looked at and decided to keep — every entry carries a
mandatory ``justification`` so "why is this allowed?" is answered in
the file itself, not in git archaeology.  Entries match findings on
``(rule, path, symbol)`` — deliberately *not* on line number, so an
unrelated edit above the finding doesn't churn the baseline.

Format::

    [[suppression]]
    rule = "lock-discipline"
    path = "src/repro/serve/scheduler.py"
    symbol = "MicroBatcher.__len__"
    justification = "single-word read of list length; atomic under the GIL"

A stale entry (matching no current finding) fails ``--check``: dead
suppressions hide real regressions behind an always-green mask.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.findings import Finding


class BaselineError(ValueError):
    """The baseline file is malformed (missing keys, no justification)."""


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding: identity triple plus its justification."""

    rule: str
    path: str
    symbol: str
    justification: str

    # census: outside input: one per entry of a non-empty baseline file
    @property
    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)


@dataclass
class Baseline:
    """The loaded suppression set."""

    entries: tuple[BaselineEntry, ...] = ()
    source: str = "<empty>"

    @classmethod
    def load(cls, path: "Path | str") -> "Baseline":
        """Load and validate ``path`` (missing file → empty baseline)."""
        path = Path(path)
        if not path.exists():
            return cls(entries=(), source=str(path))
        data = tomllib.loads(path.read_text(encoding="utf-8"))
        entries = []
        for i, raw in enumerate(data.get("suppression", [])):
            missing = [
                k
                for k in ("rule", "path", "symbol", "justification")
                if not isinstance(raw.get(k), str) or not raw[k].strip()
            ]
            if missing:
                raise BaselineError(
                    f"{path}: suppression #{i + 1} missing or empty "
                    f"{', '.join(missing)} (every entry needs rule, "
                    "path, symbol and a non-empty justification)"
                )
            entries.append(BaselineEntry(
                rule=raw["rule"],
                path=raw["path"],
                symbol=raw["symbol"],
                justification=raw["justification"],
            ))
        keys = [e.key for e in entries]
        dupes = {k for k in keys if keys.count(k) > 1}
        if dupes:
            raise BaselineError(
                f"{path}: duplicate suppression entries: "
                + ", ".join("/".join(k) for k in sorted(dupes))
            )
        return cls(entries=tuple(entries), source=str(path))

    def split(
        self, findings: "list[Finding]"
    ) -> "tuple[list[Finding], list[BaselineEntry], list[BaselineEntry]]":
        """Partition against current findings.

        Returns ``(new, used, stale)``: findings not covered by any
        entry, entries that matched at least one finding, and entries
        that matched nothing (stale — must be deleted).
        """
        by_key: dict[tuple[str, str, str], BaselineEntry] = {
            e.key: e for e in self.entries
        }
        used_keys: set[tuple[str, str, str]] = set()
        new: list[Finding] = []
        for finding in findings:
            key = (finding.rule, finding.path, finding.symbol)
            if key in by_key:
                used_keys.add(key)
            else:
                new.append(finding)
        used = [e for e in self.entries if e.key in used_keys]
        stale = [e for e in self.entries if e.key not in used_keys]
        return new, used, stale
