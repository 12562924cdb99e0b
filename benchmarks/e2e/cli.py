"""Command line of the end-to-end benchmark.

One workload (what the acceptance driver calls)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric of that run by name and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

All workloads, each in a process of its own so that ``peak_rss_mb`` and
the BLAS state of one never reach the next::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--repeat K] [--out FILE]

and ``compare A.json B.json`` over two ``--out`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_PY = pathlib.Path(__file__).resolve().with_name("run.py")
TRACE_DIR = pathlib.Path(__file__).resolve().with_name("out")

#: Window of a ``--quick`` smoke run; its numbers are not comparable.
QUICK_SECONDS: float = 2.0
#: Workloads that start worker processes; ``--quick`` leaves them out
#: unless named.
PROCESS_WORKLOADS = ("fleet_open_mixed_tol",)


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool):
    """Dispatch to the workload's module (imported here, so that
    ``compare`` and ``--help`` need neither numpy nor ``repro``)."""
    # setup_s is an end-to-end metric: only a comparable untraced run
    # spends time on repeating the set-up.
    setup_repeats = 1 if quick or trace else None
    host = None
    if trace:
        from benchmarks.e2e import host as host_probe

        host = host_probe.calibrate(log=_say)
    if name in ("solve_n7_e512", "batch8_mixed_n7_e64"):
        from benchmarks.e2e import solve

        result = solve.run(name, seed, seconds, trace, host, setup_repeats)
    elif name == "ws_small_closed":
        from benchmarks.e2e import wire

        result = wire.run(seed, seconds, trace, host, setup_repeats)
    elif name == "fleet_open_mixed_tol":
        from benchmarks.e2e import fleet

        result = fleet.run(seed, seconds, trace, host, setup_repeats)
    else:
        raise SystemExit(f"unknown workload {name!r}")
    if host:
        result.metrics.update(host)
    return result


def _say(text: str) -> None:
    print(text, flush=True)


def emit(spec: dict, result, trace: bool) -> dict:
    """Print the declared metrics of this mode with unit, sample count
    and bound, and build the final JSON object.  A per-layer metric the
    workload has no such layer for reads 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in result.metrics:
            value, mark = float(result.metrics[name]), ""
        elif trace:
            value, mark = 0.0, "  (not on this workload)"
        else:
            raise SystemExit(f"workload did not report end-to-end metric {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
        n = result.samples.get(name)
        bound = f"  bound {m['bound']:.0%}" if "bound" in m else ""
        _say(
            f"  {name:34s} {value:14.6g} {m['unit']:8s}"
            f"{'' if n is None else f'  n={n}'}{bound}  "
            f"({m['better']} is better){mark}"
        )
    undeclared = sorted(
        set(result.metrics)
        - {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    )
    if undeclared:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {undeclared}")
    for key, value in sorted(result.notes.items()):
        _say(f"  note {key}: {value}")
    for why in result.refusals[:20]:
        _say(f"  refused: {why}")
    for why in result.breaches[:20]:
        _say(f"  BREACH {why}")
    return {
        "correct": not result.breaches,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }


def write_spans(name: str, seed: int, spans) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "columns": ["name", "id", "parent", "start_s", "end_s"],
            "spans": [list(s) for s in spans],
        }, fh)
    _say(f"  {len(spans)} spans written to {path.relative_to(ROOT)}")


def run_one(args, spec: dict) -> int:
    trace = bool(args.trace)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    _say(
        f"{args.workload} seed={args.seed} seconds={seconds:g} "
        f"trace={int(trace)}"
        + ("  QUICK: NOT COMPARABLE" if args.quick else "")
    )
    result = run_workload(args.workload, args.seed, seconds, trace, args.quick)
    if trace and result.spans:
        write_spans(args.workload, args.seed, result.spans)
    final = emit(spec, result, trace)
    if args.out:
        _write_out(args.out, args, [_record(args.workload, args.seed, seconds, trace, final)])
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


def _record(workload, seed, seconds, trace, final) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), **final,
    }


def _write_out(path: str, args, runs: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"comparable": not args.quick, "runs": runs}, fh, indent=1)
    _say(f"wrote {path}")


def run_all(args, spec: dict) -> int:
    """Every workload, every requested mode, ``--repeat`` seeds each;
    one child process per run."""
    names = [
        w["name"] for w in spec["workloads"]
        if not (args.quick and w["name"] in PROCESS_WORKLOADS)
    ]
    seconds = QUICK_SECONDS if args.quick else args.seconds
    runs: list[dict] = []
    status = 0
    for name in names:
        for trace in ((0, 1) if args.trace else (0,)):
            for rep in range(args.repeat):
                seed = args.seed + rep
                cmd = [
                    sys.executable, str(RUN_PY), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.rstrip("\n").split("\n")
                print("\n".join(lines[:-1]), flush=True)
                if done.returncode not in (0, 1):
                    _say(f"{name}: exited {done.returncode}")
                    status = 1
                    continue
                status |= done.returncode
                runs.append(_record(name, seed, seconds, trace, json.loads(lines[-1])))
    if args.out:
        _write_out(args.out, args, runs)
    return status


def stop_children() -> None:
    """Stop every process this one started and wait until each has
    ended; called on every path out of the command.

    The fleet closes and joins its workers itself, but ``multiprocessing``
    also starts a resource tracker beside them (``spawn`` and every
    ``SharedMemory`` do) that only ends once this process has gone —
    after the exit, where the next run would still find it.  It is
    stopped and waited for here; anything else still a child by then is
    killed and reaped.
    """
    if "multiprocessing" in sys.modules:
        import multiprocessing
        from multiprocessing import resource_tracker

        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    me = str(os.getpid())
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
            if ppid == me:
                os.kill(int(entry), signal.SIGKILL)
                os.waitpid(int(entry), 0)
        except OSError:
            continue  # gone already, or reaped by whoever started it


def run_process() -> int:
    """``main`` as the whole of a process: what ``run.py`` and
    ``python -m benchmarks.e2e`` call, so that nothing this process
    started outlives it.  (``main`` itself may be called from a process
    that has children of its own, as the self-tests do.)"""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return main()
    finally:
        stop_children()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:], load_spec())
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="2 s windows, one set-up; output is not comparable")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+K-1 (all-workload mode)")
    parser.add_argument("--out", help="write the runs to this JSON file")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)
