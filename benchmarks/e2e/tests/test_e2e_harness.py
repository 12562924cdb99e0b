"""Self-tests of the end-to-end benchmark harness.

Pure arithmetic plus one in-process ``--quick`` smoke; no worker
processes, a few seconds in all.  Collected by the tier-1 command
(``python -m pytest`` from the repository root).
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import cli, compare
from benchmarks.e2e.harness import (
    MIN_BEYOND,
    Span,
    SpanRecorder,
    covered,
    mask_client_frame,
    open_loop_schedule,
    percentile,
    samples_beyond,
    self_time_by_name,
    self_times,
    spread,
    subwindow_tail,
)

SPEC = cli.load_spec()


# -- the percentile rule ------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, highest",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, highest):
    """The rule: report the highest percentile that keeps at least ten
    samples beyond it."""
    supported = [
        pct for pct in (50.0, 90.0, 95.0, 99.0, 99.9)
        if samples_beyond(n, pct) >= MIN_BEYOND
    ]
    assert (supported[-1] if supported else None) == highest


def test_subwindow_tail_is_median_of_subwindow_percentiles():
    # Four sub-windows of 200 samples; one holds a stall.  The pooled
    # p95 is owned by the stall, the sub-window median is not.
    stamps, values = [], []
    for w in range(4):
        for i in range(200):
            stamps.append(w + i / 200.0)
            values.append(100.0 if (w == 2 and i >= 100) else 1.0 + i / 1000.0)
    tail, used = subwindow_tail(stamps, values, 0.0, 4.0, 4, 95.0)
    assert used == 4
    assert tail < 2.0
    assert percentile(values, 95.0) == 100.0


def test_subwindow_tail_merges_windows_until_the_rule_holds():
    stamps = [i / 100.0 for i in range(400)]
    values = [float(i % 50) for i in range(400)]
    # p99 needs 1000+ samples a window: four windows of 100 cannot.
    _, used = subwindow_tail(stamps, values, 0.0, 4.0, 4, 99.0)
    assert used == 1
    _, used = subwindow_tail(stamps, values, 0.0, 4.0, 4, 50.0)
    assert used == 4


def test_spread_is_quartile_distance_over_median():
    assert spread([10, 10, 10, 10, 10]) == 0.0
    assert spread([8, 9, 10, 11, 12]) == pytest.approx(3.0 / 10.0)


# -- span self time -----------------------------------------------------
def test_covered_counts_overlapping_children_once():
    assert covered(0, 10, [(1, 4), (3, 6)]) == 5
    assert covered(0, 10, [(-5, 2), (8, 20)]) == 4
    assert covered(0, 10, []) == 0


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        Span("root", 0, -1, 0.0, 10.0),
        Span("child", 1, 0, 1.0, 5.0),
        Span("grandchild", 2, 1, 2.0, 3.0),
        Span("child", 3, 0, 4.0, 7.0),   # overlaps the first child
        Span("stray", 4, -1, 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0)
    assert own[1] == pytest.approx(4.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    seconds, calls, root_seconds = self_time_by_name(spans, "root")
    assert root_seconds == 10.0
    assert calls == {"root": 1, "child": 2, "grandchild": 1}
    assert "stray" not in seconds


def test_recorder_nests_per_thread_and_shares_reconcile():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda: sum(range(1000)))

    def outer():
        inner()
        inner()

    rec.wrap("outer", outer)()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["outer"].parent == -1
    assert all(s.parent == by_name["outer"].ident for s in rec.spans if s.name == "inner")
    seconds, calls, root_seconds = self_time_by_name(rec.spans, "outer")
    assert calls == {"outer": 1, "inner": 2}
    assert sum(seconds.values()) == pytest.approx(root_seconds)


# -- inputs are a pure function of the seed -----------------------------
def test_open_loop_schedule_is_a_pure_function_of_the_seed():
    args = ((40.0, 80.0, 160.0), 5.0, (0.25, 0.75), 32)
    a, b = open_loop_schedule(3, *args), open_loop_schedule(3, *args)
    assert a == b
    assert a != open_loop_schedule(4, *args)
    assert [x.due for x in a] == sorted(x.due for x in a)
    assert {x.phase for x in a} == {0, 1, 2}
    for phase, rate in enumerate(args[0]):
        rung = [x for x in a if x.phase == phase]
        assert len(rung) == rate * 5.0  # the offered load is exact ...
        assert sum(x.tenant == 0 for x in rung) == round(0.25 * len(rung))  # ... and the mix
        assert all(phase * 5.0 <= x.due < (phase + 1) * 5.0 for x in rung)
    assert {x.tenant for x in a} == {0, 1}
    assert all(0 <= x.rhs < 32 for x in a)


def _unmask(frame: bytes) -> tuple[int, bytes]:
    """Server-side reading of one client frame, byte by byte as RFC 6455
    5.3 states it (and as the gateway does it)."""
    assert frame[0] & 0x80 and frame[1] & 0x80  # FIN set, masked
    n, off = frame[1] & 0x7F, 2
    if n == 126:
        n, off = int.from_bytes(frame[2:4], "big"), 4
    elif n == 127:
        n, off = int.from_bytes(frame[2:10], "big"), 10
    mask, body = frame[off:off + 4], frame[off + 4:]
    assert len(body) == n
    return frame[0] & 0x0F, bytes(b ^ mask[i & 3] for i, b in enumerate(body))


@pytest.mark.parametrize("size", [0, 5, 125, 126, 7000, 70000])
def test_masked_frames_unmask_to_the_original_json(size):
    doc = json.dumps({"id": 3, "b": [0.1] * size, "tol": 1e-8}).encode()
    opcode, payload = _unmask(mask_client_frame(doc, b"\x12\x34\x56\x78"))
    assert opcode == 0x1
    assert payload == doc


# -- declarations -------------------------------------------------------
def test_benchmark_json_is_inside_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 12) < 3420  # 12 s: set-ups, import, drain
    root = pathlib.Path(cli.ROOT)
    for path in SPEC["paths"]:
        assert (root / path).is_dir()
    assert all(not part.startswith("/") and ".." not in part for part in SPEC["command"])


# -- nothing outlives the command ---------------------------------------
def test_stop_children_ends_the_resource_tracker_and_stray_children():
    # In a process of its own: stop_children reaps *every* child of the
    # process it runs in, and this one has pytest's.
    script = (
        "import os, subprocess, sys\n"
        "from multiprocessing import resource_tracker\n"
        "from benchmarks.e2e import cli\n"
        "resource_tracker.ensure_running()\n"
        "pids = [resource_tracker._resource_tracker._pid,\n"
        "        subprocess.Popen(['sleep', '60']).pid]\n"
        "cli.stop_children()\n"
        "print([p for p in pids if os.path.exists(f'/proc/{p}')])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=cli.ROOT, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# -- the command, end to end --------------------------------------------
def _final_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.rstrip("\n").split("\n")[-1])


def test_quick_smoke_emits_exactly_the_declared_metrics(capsys, tmp_path):
    out = tmp_path / "quick.json"
    argv = ["--quick", "--workload", "ws_small_closed", "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    final = _final_json(capsys)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in final["metrics"].items():
        assert m["unit"] == units[name]
        assert m["value"] > 0
    doc = json.loads(out.read_text())
    assert doc["comparable"] is False
    with pytest.raises(SystemExit, match="non-comparable"):
        compare.main([str(out), str(out)], SPEC)


def test_quick_traced_smoke_emits_every_per_layer_metric(capsys):
    # The cheapest traced workload that exercises the sem proxies; the
    # host probe is replaced so the test allocates no gigabytes.
    from benchmarks.e2e import host

    fake = {
        "host.triad_gbps": 10.0, "host.dgemm_gflops": 50.0, "host.llc_mib": 32.0,
        "host.triad_array_mib": 128.0, "host.triad_in_cache": 0.0, "host.nproc": 2.0,
    }
    real = host.calibrate
    host.calibrate = lambda log=print: dict(fake)
    try:
        argv = ["--quick", "--workload", "ws_small_closed", "--trace", "1"]
        assert cli.main(argv) == 0
    finally:
        host.calibrate = real
    final = _final_json(capsys)
    assert final["correct"] is True
    assert set(final["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in final["metrics"].items()}
    shares = (
        m["kernels.ax_share"] + m["gather_scatter.share"]
        + m["poisson.apply_share"] + m["cg.self_share"]
    )
    assert shares == pytest.approx(1.0, abs=1e-9)
    tiers = (
        1e6 / m["tier.sem_rps"] + m["service.self_us"] + m["asyncio_front.self_us"]
        + m["gateway.admit_self_us"] + m["gateway.wire_self_us"]
    )
    assert tiers == pytest.approx(1e6 / m["tier.wire_rps"], rel=1e-9)
    assert m["cg.iterations"] > 0 and m["procshard.copy_bytes"] == 0


# -- compare ------------------------------------------------------------
def _runs(workload, metric_values, failed=0):
    return [
        {
            "workload": workload, "seed": i, "seconds": 20, "trace": 0,
            "correct": True, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v[i], "unit": "x"} for k, v in metric_values.items()},
        }
        for i in range(len(next(iter(metric_values.values()))))
    ]


def test_judge_applies_bound_direction_and_spread():
    steady = [100, 101, 99, 100, 102]
    assert compare.judge(steady, [105, 106, 104, 105, 107], "lower", 0.10)[0] == "ok"
    assert compare.judge(steady, [115, 116, 114, 115, 117], "lower", 0.10)[0] == "regressed"
    assert compare.judge(steady, [85, 86, 84, 85, 87], "higher", 0.10)[0] == "regressed"
    assert compare.judge(steady, [85, 86, 84, 85, 87], "lower", 0.10)[0] == "ok"
    noisy = [80, 120, 100, 70, 130]
    assert compare.judge(noisy, [82, 118, 101, 72, 128], "lower", 0.10)[0] == "unresolved"
    # Wide spread, but every new run beats every base run: resolved.
    assert compare.judge(noisy, [50, 60, 55, 40, 65], "lower", 0.10)[0] == "ok"


def test_compare_reports_each_row_and_fails_on_regression(tmp_path, capsys):
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    workloads = [w["name"] for w in SPEC["workloads"]]
    base = {name: [10.0, 10.1, 9.9, 10.0] for name in e2e}
    runs_a = [r for w in workloads for r in _runs(w, base)]
    worse = dict(base, lat_p50_ms=[13.0, 13.1, 12.9, 13.0])
    runs_b = [
        r for w in workloads
        for r in _runs(w, worse if w == "ws_small_closed" else base)
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"comparable": True, "runs": runs_a}))
    b.write_text(json.dumps({"comparable": True, "runs": runs_b}))
    assert compare.main([str(a), str(a)], SPEC) == 0
    capsys.readouterr()
    assert compare.main([str(a), str(b)], SPEC) == 1
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if "regressed" in line]
    assert len(rows) == 1 and "ws_small_closed" in rows[0] and "lat_p50_ms" in rows[0]
    assert out.count(" ok") >= len(e2e) * len(workloads) - 1
