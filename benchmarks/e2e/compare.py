"""``compare A.json B.json``: apply each end-to-end metric's bound per
(metric, workload) row of two ``--out`` files.

``A`` is the base (the parent commit), ``B`` the change.  A row is

* ``regressed``  when B's median is worse than A's by more than the
  metric's bound, or B failed more operations than A;
* ``unresolved`` when the run-to-run spread of either side (quartile
  distance over median, four runs or more) is wider than the bound —
  unless every run of B reads better than every run of A;
* ``ok``         otherwise.

Every ratio is printed with its base.  Per-layer rows (traced runs)
have no bound and are printed for attribution only.
"""

from __future__ import annotations

import json
import statistics

from benchmarks.e2e.harness import spread

#: Runs per side below which no spread is stated.
MIN_RUNS_FOR_SPREAD: int = 4


def _load(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not doc.get("comparable", False):
        raise SystemExit(f"{path} is stamped non-comparable (a --quick run)")
    return doc


def _rows(doc: dict, trace: int) -> dict[tuple[str, str], list[float]]:
    rows: dict[tuple[str, str], list[float]] = {}
    for run in doc["runs"]:
        if run["trace"] != trace:
            continue
        for name, m in run["metrics"].items():
            rows.setdefault((run["workload"], name), []).append(m["value"])
    return rows


def _failed(doc: dict) -> dict[str, float]:
    """Median failed operations per run, by workload (untraced runs)."""
    by: dict[str, list[int]] = {}
    for run in doc["runs"]:
        if run["trace"] == 0:
            by.setdefault(run["workload"], []).append(run["failed"])
    return {w: statistics.median(v) for w, v in by.items()}


def _spread(values: list[float]) -> float | None:
    if len(values) < MIN_RUNS_FOR_SPREAD or statistics.median(values) == 0:
        return None
    return spread(values)


def judge(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Status of one row and the share by which B's median is worse
    (negative: better)."""
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new - base) / abs(base) if base else 0.0
    if worse > bound:
        return "regressed", worse
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    all_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if spreads and max(spreads) > bound and not all_better:
        return "unresolved", worse
    return "ok", worse


def _fmt_spread(values: list[float]) -> str:
    s = _spread(values)
    return "   n/a" if s is None else f"{s:6.1%}"


def main(argv: list[str], spec: dict) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: compare A.json B.json   (A is the base)")
    doc_a, doc_b = _load(argv[0]), _load(argv[1])
    status = 0
    rows_a, rows_b = _rows(doc_a, 0), _rows(doc_b, 0)
    print(f"end to end: base {argv[0]}  vs  {argv[1]}")
    print(
        f"{'workload':22s} {'metric':16s} {'base':>12s} {'new':>12s} "
        f"{'new/base':>9s} {'worse by':>9s} {'bound':>6s} "
        f"{'spr.base':>8s} {'spr.new':>8s}  n     status"
    )
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            a, b = rows_a.get(key), rows_b.get(key)
            if not a or not b:
                print(f"{key[0]:22s} {key[1]:16s} missing on one side")
                status = 1
                continue
            verdict, worse = judge(a, b, m["better"], m["bound"])
            status |= verdict == "regressed"
            base, new = statistics.median(a), statistics.median(b)
            print(
                f"{key[0]:22s} {key[1]:16s} {base:12.5g} {new:12.5g} "
                f"{new / base:9.3f} {worse:+9.1%} {m['bound']:6.0%} "
                f"{_fmt_spread(a):>8s} {_fmt_spread(b):>8s}  "
                f"{len(a)}/{len(b):<3d} {verdict}"
            )
    failed_a, failed_b = _failed(doc_a), _failed(doc_b)
    for w in spec["workloads"]:
        fa, fb = failed_a.get(w["name"]), failed_b.get(w["name"])
        if fa is None or fb is None:
            continue
        verdict = "regressed" if fb > fa else "ok"
        status |= verdict == "regressed"
        print(
            f"{w['name']:22s} {'failed (median)':16s} {fa:12g} {fb:12g} "
            f"{'':9s} {'':9s} {'any':>6s} {'':8s} {'':8s}  {'':5s} {verdict}"
        )
    layer_a, layer_b = _rows(doc_a, 1), _rows(doc_b, 1)
    shared = [k for k in layer_a if k in layer_b]
    if shared:
        print("per layer (no bound; for attribution):")
        for key in shared:
            base = statistics.median(layer_a[key])
            new = statistics.median(layer_b[key])
            if base == 0 and new == 0:
                continue  # not measured on this workload
            ratio = f"{new / base:9.3f}" if base else "      n/a"
            print(f"{key[0]:22s} {key[1]:30s} {base:12.5g} {new:12.5g} {ratio}")
    return int(status)
