#!/usr/bin/env python
"""Snapshot the real kernel benchmarks into ``BENCH_kernels.json``.

Runs ``benchmarks/bench_kernels.py`` under pytest-benchmark with
``--benchmark-json``, then appends a ``derived`` section with the
headline hot-path ratios (einsum vs matmul at the paper's N=7 reference
shape, fp32 vs fp64 ``Ax`` and the mixed-precision refinement solve,
batched multi-RHS speedups) so future PRs have a perf trajectory to
compare against:

    python benchmarks/run_baseline.py [--out BENCH_kernels.json]
                                      [--fast] [--history] [--compare]

BLAS is pinned to one thread for the run (``OPENBLAS_NUM_THREADS=1``
etc.), so the single-core numbers measure the kernels, not the BLAS
pool.

``--fast`` caps benchmark rounds for a quick smoke run; omit it for the
numbers you intend to commit.  ``--history`` appends this snapshot's
``derived`` ratios to ``BENCH_history.json`` (a growing trajectory)
instead of silently discarding the previous snapshot's.  ``--compare``
exits non-zero if any derived speedup regressed by more than 20% vs the
committed snapshot at ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Environment pins applied to the benchmark subprocess: one BLAS/OpenMP
#: thread each, so wall-clock ratios isolate the library's own blocking
#: rather than the BLAS pool's.
SINGLE_THREAD_ENV: dict[str, str] = {
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Relative regression tolerance for ``--compare`` (on speedup ratios).
REGRESSION_TOLERANCE: float = 0.20


def run_benchmarks(out_path: pathlib.Path, fast: bool) -> None:
    """Execute the kernel benchmark suite, writing the raw JSON."""
    cmd = [
        sys.executable, "-m", "pytest",
        str(REPO_ROOT / "benchmarks" / "bench_kernels.py"),
        "--benchmark-only",
        "--benchmark-json", str(out_path),
        "-q",
    ]
    if fast:
        cmd += ["--benchmark-max-time", "0.2", "--benchmark-min-rounds", "3"]
    env_path = str(REPO_ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        env_path + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else env_path
    )
    env.update(SINGLE_THREAD_ENV)
    subprocess.run(cmd, check=True, env=env, cwd=REPO_ROOT)


def bench_of(data: dict, name: str) -> dict | None:
    """The benchmark record with exactly this name."""
    for bench in data.get("benchmarks", []):
        if bench["name"] == name:
            return bench
    return None


def mean_of(data: dict, name: str) -> float | None:
    """Mean runtime of the benchmark with exactly this name."""
    bench = bench_of(data, name)
    return float(bench["stats"]["mean"]) if bench else None


def derive(data: dict) -> dict:
    """Headline ratios tracked across PRs."""
    derived: dict = {}
    einsum = mean_of(data, "test_bench_ax_n7_e512[einsum]")
    matmul = mean_of(data, "test_bench_ax_n7_e512[matmul]")
    if einsum and matmul:
        derived["ax_n7_e512_einsum_s"] = einsum
        derived["ax_n7_e512_matmul_s"] = matmul
        derived["ax_n7_e512_matmul_speedup"] = einsum / matmul
    fp32 = mean_of(data, "test_bench_ax_n7_e512_fp32")
    if matmul and fp32:
        derived["ax_n7_e512_fp32_s"] = fp32
        # fp64 matmul vs its fp32 twin at the bandwidth-bound shape —
        # the bytes-per-DOF thesis measured directly (~2x when the
        # kernel is truly bandwidth-bound).
        derived["ax_n7_e512_fp32_speedup"] = matmul / fp32
    cg_fp64 = mean_of(data, "test_bench_cg_fp64_n7_e512")
    cg_mixed = mean_of(data, "test_bench_cg_mixed_refine")
    if cg_fp64 and cg_mixed:
        derived["cg_fp64_n7_e512_s"] = cg_fp64
        derived["cg_mixed_refine_s"] = cg_mixed
        # Mixed-precision refinement vs the warm fp64 solve to the same
        # fp64 true-residual tolerance (acceptance floor: 1.3x).
        derived["cg_mixed_refine_speedup"] = cg_fp64 / cg_mixed
    cg_plain = mean_of(data, "test_bench_cg_solve")
    cg_ws = mean_of(data, "test_bench_cg_solve_workspace")
    if cg_plain and cg_ws:
        derived["cg10_einsum_s"] = cg_plain
        derived["cg10_workspace_matmul_s"] = cg_ws
        derived["cg10_workspace_speedup"] = cg_plain / cg_ws
    seq = mean_of(data, "test_bench_cg_sequential_b8")
    bat = mean_of(data, "test_bench_cg_batched_b8")
    if seq and bat:
        derived["cg10_sequential_b8_s"] = seq
        derived["cg10_batched_b8_s"] = bat
        derived["cg10_batched_b8_speedup"] = seq / bat
    srv_bench = bench_of(data, "test_bench_serve_throughput_b8")
    if seq and srv_bench:
        srv = float(srv_bench["stats"]["mean"])
        requests = float(
            srv_bench.get("extra_info", {}).get("requests_per_round", 8)
        )
        derived["serve_b8_s"] = srv
        # End-to-end requests/second through the micro-batching service
        # (the benchmark records how many requests each round serves)...
        derived["serve_throughput"] = requests / srv
        # ...and the headline ratio vs the same requests solved
        # sequentially by warm cg_solve (acceptance floor: 1.5x).
        derived["serve_throughput_speedup"] = seq / srv
    proc_bench = bench_of(data, "test_bench_serve_procshard_throughput_b16")
    if proc_bench:
        proc = float(proc_bench["stats"]["mean"])
        proc_requests = float(
            proc_bench.get("extra_info", {}).get("requests_per_round", 16)
        )
        derived["serve_procshard_b16_s"] = proc
        # Requests/second through the K=2 process-sharded service
        # (shared-memory geometry, per-worker slot rings + doorbell
        # pipes)...
        derived["serve_procshard_throughput"] = proc_requests / proc
        if "serve_throughput" in derived:
            # ...vs the single-service solves/s.  Two worker processes
            # timesharing this host also pay the doorbell hop, so
            # the floor (0.6x, below) only demands the process
            # boundary stay cheap; multi-core hosts record the real
            # scaling, which is the point of tracking the ratio.
            derived["serve_procshard_vs_single_speedup"] = (
                derived["serve_procshard_throughput"]
                / derived["serve_throughput"]
            )
    gw_bench = bench_of(data, "test_bench_serve_gateway_b8")
    if gw_bench:
        gw = float(gw_bench["stats"]["mean"])
        gw_requests = float(
            gw_bench.get("extra_info", {}).get("requests_per_round", 8)
        )
        derived["serve_gateway_b8_s"] = gw
        derived["serve_gateway_throughput"] = gw_requests / gw
        if srv_bench:
            # The multi-tenant front door (auth + rate limit + quota +
            # shed check + asyncio hop) vs direct submit on the same
            # stream.  Floor-gated below at 0.5x: the gateway must keep
            # at least half the direct solves/s even at this small
            # shape, where per-request bookkeeping is largest relative
            # to the ~ms solves.  Not a *_speedup key: the overhead is
            # a price, tracked — only the floor fails the build.
            derived["serve_gateway_overhead"] = (
                derived["serve_gateway_throughput"]
                / derived["serve_throughput"]
            )
    tail_bench = bench_of(data, "test_bench_serve_costaware_tail_p99")
    if tail_bench:
        info = tail_bench.get("extra_info", {})
        depth_p99 = info.get("depth_only_loose_p99_s")
        cost_p99 = info.get("costaware_loose_p99_s")
        if depth_p99 and cost_p99:
            derived["serve_depth_only_loose_p99_s"] = float(depth_p99)
            derived["serve_costaware_loose_p99_s"] = float(cost_p99)
            # Tail latency of the cheap tenant class, depth-only over
            # cost-predicted routing (>1: the cost model pays).  The
            # win comes from batch homogeneity, not parallelism, so it
            # shows even on this 1-vCPU host (~1.5-2x measured) —
            # tracked, not gated: p99 of a 24-sample class is noisy by
            # construction and a slow CI host must not fail the build
            # on it.
            derived["serve_costaware_tail_p99_ratio"] = (
                float(depth_p99) / float(cost_p99)
            )
    crash_bench = bench_of(data, "test_bench_serve_crash_recovery")
    if crash_bench:
        # Seconds from terminating one of K=2 workers to the fleet
        # healed (respawn handshake passed, slot re-admitted) and a
        # full request block served.  Dominated by the respawned
        # interpreter re-importing numpy; tracked as an absolute time,
        # not a gated speedup ratio.
        derived["serve_crash_recovery_s"] = float(
            crash_bench["stats"]["mean"]
        )
    return derived


def compare_derived(old: dict, new: dict) -> list[str]:
    """Speedup keys that regressed by more than the tolerance."""
    regressions = []
    for key, old_value in old.items():
        if not key.endswith("_speedup"):
            continue
        new_value = new.get(key)
        if new_value is None:
            regressions.append(f"{key}: missing from new snapshot")
        elif new_value < (1.0 - REGRESSION_TOLERANCE) * float(old_value):
            regressions.append(
                f"{key}: {old_value:.3f} -> {new_value:.3f} "
                f"(>{REGRESSION_TOLERANCE:.0%} regression)"
            )
    return regressions


def append_history(history_path: pathlib.Path, derived: dict) -> None:
    """Append one ``derived`` snapshot to the trajectory file."""
    history: list = []
    if history_path.exists():
        history = json.loads(history_path.read_text())
        if not isinstance(history, list):
            raise ValueError(
                f"{history_path} does not hold a history list; refusing to "
                "overwrite it"
            )
    history.append({
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "derived": derived,
    })
    history_path.write_text(json.dumps(history, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_kernels.json"),
        help="snapshot path (default: repo-root BENCH_kernels.json)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="smoke-run with capped rounds (do not commit these numbers)",
    )
    parser.add_argument(
        "--history", action="store_true",
        help="append this snapshot's derived ratios to BENCH_history.json "
             "(next to --out) instead of only overwriting the snapshot",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="exit non-zero if a derived speedup regressed >20%% vs the "
             "committed snapshot at --out",
    )
    args = parser.parse_args(argv)
    out_path = pathlib.Path(args.out)

    old_derived: dict = {}
    if args.compare and out_path.exists():
        old_derived = json.loads(out_path.read_text()).get("derived", {})

    run_benchmarks(out_path, args.fast)

    data = json.loads(out_path.read_text())
    data["derived"] = derive(data)
    # Keep the snapshot diffable: drop per-round raw samples and
    # machine-local noise; the summary stats carry the trend.
    data.pop("commit_info", None)
    for bench in data.get("benchmarks", []):
        bench["stats"].pop("data", None)
    out_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    print(f"\nwrote {out_path}")
    for key, value in data["derived"].items():
        print(f"  {key}: {value:.6g}")

    if args.history:
        history_path = out_path.parent / "BENCH_history.json"
        append_history(history_path, data["derived"])
        print(f"appended derived ratios to {history_path}")

    status = 0
    if args.compare and old_derived:
        regressions = compare_derived(old_derived, data["derived"])
        for line in regressions:
            print(f"REGRESSION: {line}")
        # --fast rounds are too noisy to gate on (same policy as the 2x
        # threshold below): report, but only full runs fail the build.
        if regressions and not args.fast:
            status = 1

    speedup = data["derived"].get("ax_n7_e512_matmul_speedup")
    if speedup is not None and speedup < 2.0:
        print(
            f"WARNING: matmul speedup {speedup:.2f}x is below the 2x "
            "acceptance threshold on this host"
        )
        # --fast rounds are too noisy to gate on; full runs still fail.
        if not args.fast:
            status = status or 1
    mixed = data["derived"].get("cg_mixed_refine_speedup")
    if mixed is not None and mixed < 1.3:
        print(
            f"WARNING: mixed-precision refinement {mixed:.2f}x the warm "
            "fp64 solve is below the 1.3x acceptance threshold on this "
            "host"
        )
        if not args.fast:
            status = status or 1
    serve = data["derived"].get("serve_throughput_speedup")
    if serve is not None and serve < 1.5:
        print(
            f"WARNING: serve throughput {serve:.2f}x sequential is below "
            "the 1.5x acceptance threshold on this host"
        )
        if not args.fast:
            status = status or 1
    procshard = data["derived"].get("serve_procshard_vs_single_speedup")
    if procshard is not None and procshard < 0.6:
        print(
            f"WARNING: process-sharded serve throughput {procshard:.2f}x "
            "the single service is below the 0.6x floor (two worker "
            "processes timeshare this host's cores and pay the "
            "doorbell pipe hop; the floor only demands that the process "
            "boundary stay cheap, the ratio itself is tracked for "
            "multi-core hosts)"
        )
        if not args.fast:
            status = status or 1
    gateway = data["derived"].get("serve_gateway_overhead")
    if gateway is not None and gateway < 0.5:
        print(
            f"WARNING: gateway throughput at {gateway:.2f}x direct "
            "submit is below the 0.5x floor (the admission pipeline — "
            "auth, rate limit, quota, shed check — plus the asyncio "
            "hop must not eat more than half the solves/s even at the "
            "small N=3/E=8 shape where per-request bookkeeping is "
            "largest relative to the ~ms solves)"
        )
        if not args.fast:
            status = status or 1
    return status


if __name__ == "__main__":
    sys.exit(main())
