"""CLI: ``python -m repro.analysis [--check] [paths...]``.

Three modes:

* default (report): print **every** finding, including ones covered by
  the baseline (marked ``[baselined]``), and exit 0 — the exploration
  view.
* ``--check`` (CI gate): apply the baseline; exit non-zero if any
  finding is *not* baselined, or if the baseline carries stale entries
  (suppressions matching nothing — dead weight that would mask a
  regression).
* ``census``: run every consumer of the repository and list the
  functions none of them called (:mod:`repro.analysis.census`); exits
  non-zero if one carries no ``# census:`` reason, or a consumer fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import census
from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_paths, known_rule_ids

DEFAULT_PATHS = ("src/repro",)
DEFAULT_BASELINE = "analysis/baseline.toml"


def main(argv: "list[str] | None" = None) -> int:
    if (sys.argv[1:] if argv is None else argv) == ["census"]:
        return census.main(Path(__file__).resolve().parents[3])
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project invariant linter (lock discipline, clock "
        "discipline, shm lifecycle, hot-path allocations, contiguity).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to analyze (default: {DEFAULT_PATHS[0]})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: fail on non-baselined findings and on stale "
        "baseline entries",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline TOML (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="root that finding paths are reported relative to "
        "(default: cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in known_rule_ids():
            print(rule_id)
        return 0

    try:
        baseline = Baseline.load(Path(args.root) / args.baseline)
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    findings = analyze_paths(args.paths, root=args.root,
                             config=AnalysisConfig())
    new, used, stale = baseline.split(findings)

    if not args.check:
        baselined_keys = {e.key for e in used}
        for finding in findings:
            tag = (
                " [baselined]"
                if (finding.rule, finding.path, finding.symbol)
                in baselined_keys
                else ""
            )
            print(finding.render() + tag)
        print(
            f"{len(findings)} finding(s), "
            f"{len(findings) - len(new)} baselined, {len(new)} new"
        )
        return 0

    failed = False
    for finding in new:
        print(finding.render())
        failed = True
    for entry in stale:
        print(
            f"stale baseline entry: {entry.rule} / {entry.path} / "
            f"{entry.symbol} matches no current finding — delete it "
            f"(was: {entry.justification})"
        )
        failed = True
    if failed:
        print(
            f"FAILED: {len(new)} new finding(s), "
            f"{len(stale)} stale baseline entr(y/ies)",
            file=sys.stderr,
        )
        return 1
    print(
        f"analysis clean: {len(findings)} finding(s), all baselined "
        f"({len(baseline.entries)} suppression(s) in use)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
