"""The two closed-loop solve workloads: one caller, next solve only
after the last one returned.

``solve_n7_e512`` is the paper's bandwidth-bound shape solved in fp64:
the ``sem`` kernels are nearly all of the time and ``serve`` does
nothing.  ``batch8_mixed_n7_e64`` sends the same layers down their
other road — stacked ``(B, n)`` blocks, the fp32 twins, the refinement
wrapper — so a gain bought for fp64 B=1 at their expense shows as a
loss here.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sem import BoxMesh, PoissonProblem, ReferenceElement, cg_solve
from repro.sem.cg import cg_solve_batched_mixed, cg_solve_mixed

from benchmarks.e2e import semtrace
from benchmarks.e2e.harness import HostProbe, SpanRecorder, peak_rss_mb, timed_setups
from benchmarks.e2e.result import RunResult

TOL: float = 1e-8
#: Tolerance of the set-up's first solve: enough iterations to touch
#: every lazily built buffer, few enough that construction — where
#: precomputation would be moved to — stays the larger part of
#: ``setup_s``.
WARMUP_TOL: float = 1e-2
MAXITER: int = 2000
#: Distinct seeded right-hand sides per run; the window cycles through
#: them, so a repeated rhs checks bit-for-bit repeatability for free.
POOL: int = 4
#: Slack on the recomputed true residual of an fp64 solve, whose
#: stopping test is on the recurrence residual.
TRUE_RESIDUAL_SLACK: float = 1.5


@dataclass(frozen=True)
class SolveShape:
    name: str
    elements: tuple[int, int, int]
    batch: int | None  # None: single fp64 system; B: stacked mixed block
    #: Whether an iteration's working set streams through the shared
    #: last-level cache (25 MB at 512 elements) or stays in the core's
    #: own (the 64-element block); picks the host yardstick's parts.
    streams: bool


SHAPES = {
    "solve_n7_e512": SolveShape("solve_n7_e512", (8, 8, 8), None, True),
    "batch8_mixed_n7_e64": SolveShape("batch8_mixed_n7_e64", (4, 4, 4), 8, False),
}


class _Case:
    """A built problem plus the one call the workload times."""

    def __init__(self, shape: SolveShape, backend: str = "matmul") -> None:
        ref = ReferenceElement.from_degree(7)
        self.shape = shape
        self.problem = PoissonProblem(
            BoxMesh.build(ref, shape.elements), ax_backend=backend
        )
        self.diag = self.problem.precond_diag()
        self.solver: Callable = (
            cg_solve if shape.batch is None else cg_solve_batched_mixed
        )

    def rhs(self, rng: np.random.Generator) -> np.ndarray:
        """Interior-masked white noise (generic data: a smooth rhs would
        measure its own smoothness, see ``bench_kernels``)."""
        p = self.problem
        size = p.n_dofs if self.shape.batch is None else (self.shape.batch, p.n_dofs)
        return rng.standard_normal(size) * p.interior

    def solve(self, b: np.ndarray, tol: float = TOL):
        p = self.problem
        if self.shape.batch is None:
            return self.solver(
                p.apply_A, b, precond_diag=self.diag, tol=tol,
                maxiter=MAXITER, workspace=p.workspace,
            )
        return self.solver(
            p.apply_A, p.apply_A32, b, precond_diag=self.diag, tol=tol,
            maxiter=MAXITER,
            workspace=p.batch_workspace(self.shape.batch),
            workspace32=p.batch_workspace(self.shape.batch, dtype=np.float32),
        )

    def breach(self, b: np.ndarray, res, tol: float = TOL) -> str | None:
        """Why this result is wrong, or ``None``: convergence flag and
        the true residual recomputed through a fresh operator call."""
        if not np.all(res.converged):
            return "solver reported no convergence"
        resid = b - self.problem.apply_A(res.x.copy())
        norms = np.sqrt(np.sum(resid * resid, axis=-1))
        limit = TRUE_RESIDUAL_SLACK * tol * np.sqrt(np.sum(b * b, axis=-1))
        if np.any(norms > limit):
            return (
                f"true residual {np.max(norms / limit):.3g}x over "
                f"{TRUE_RESIDUAL_SLACK} * tol * |b|"
            )
        return None


def _build(shape: SolveShape, backend: str = "matmul") -> _Case:
    """Set-up through the first verified reply."""
    case = _Case(shape, backend)
    b = case.rhs(np.random.default_rng(0))
    why = case.breach(b, case.solve(b, WARMUP_TOL), WARMUP_TOL)
    if why:
        raise AssertionError(f"{shape.name}: warm-up solve: {why}")
    return case


def _executed_iterations(res) -> int:
    """Passes of the iteration body: a stacked block runs in lockstep
    until its slowest system is done, sweep by sweep."""
    inner = getattr(res, "inner_iterations", None)
    if inner is None:
        return int(res.iterations)
    return int(np.asarray(inner).max(axis=1).sum())


def _same(a, b) -> bool:
    return (
        np.array_equal(a.x, b.x)
        and np.array_equal(a.iterations, b.iterations)
    )


def _measure(
    case: _Case, pool: list[np.ndarray], seconds: float, result: RunResult,
    probe: HostProbe,
):
    """Closed loop for ``seconds``: solve, stamp, verify, next.  Returns
    the raw solve times, the same at nominal host speed (the yardstick
    is sampled between solves), iteration counts and first results."""
    times: list[float] = []
    nominal: list[float] = []
    first: dict[int, object] = {}
    iterations = 0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        b = pool[k % len(pool)]

        def timed():
            t0 = time.perf_counter()
            res = case.solve(b)
            times.append(time.perf_counter() - t0)
            return res

        res, slowdown = probe.around(timed)
        nominal.append(times[-1] / slowdown)
        result.attempted += 1
        why = case.breach(b, res)
        seen = first.setdefault(k % len(pool), res)
        if why is None and seen is not res and not _same(seen, res):
            why = "repeat of one rhs is not bit-identical"
        if why:
            result.wrong(f"solve {k}: {why}")
        iterations += _executed_iterations(res)
        k += 1
    return times, nominal, iterations, first


def _solo_reference_breach(case: _Case, block: np.ndarray, res, k: int) -> str | None:
    """System ``k`` of a stacked mixed block must finish bit-identical
    to the same system refined alone (the library's batching contract)."""
    p = case.problem
    solo = cg_solve_mixed(
        p.apply_A, p.apply_A32, block[k], precond_diag=case.diag, tol=TOL,
        maxiter=MAXITER, workspace=p.workspace,
        workspace32=p.batch_workspace(1, dtype=np.float32),
    )
    if not np.array_equal(solo.x, res.x[k]) or solo.iterations != res.iterations[k]:
        return f"system {k} of the block differs from its solo cg_solve_mixed"
    return None


def run(
    name: str, seed: int, seconds: float, trace: bool,
    host: dict[str, float] | None = None, setup_repeats: int | None = None,
) -> RunResult:
    shape = SHAPES[name]
    result = RunResult()
    probe = HostProbe(stream=shape.streams)
    rng = np.random.default_rng([seed, 0x501E])
    case, setup_s, n_setups = timed_setups(
        lambda: _build(shape), lambda case: None, probe, setup_repeats
    )
    pool = [case.rhs(rng) for _ in range(POOL)]
    untraced_seconds = seconds / 2 if trace else seconds
    times, nominal, _, first = _measure(
        case, pool, untraced_seconds, result, probe
    )
    if shape.batch is not None:
        k = seed % shape.batch
        why = _solo_reference_breach(case, pool[0], first[0], k)
        if why:
            result.wrong(why)
    per_solve = shape.batch or 1
    median = statistics.median(times)
    result.metrics.update({
        "setup_s": setup_s,
        # Five to twenty solves a run support no percentile beyond the
        # median (ten samples beyond it are the rule).
        "lat_p50_ms": 1e3 * statistics.median(nominal),
        # Verified solves per second of solving (the one caller's
        # checking between solves is not the library's time).
        "throughput_rps": per_solve * (result.attempted - result.failed) / sum(nominal),
        "peak_rss_mb": peak_rss_mb(),
    })
    result.notes["host_slowdown"] = round(probe.median(), 4)
    result.notes["raw_lat_p50_ms"] = round(1e3 * median, 3)
    result.samples.update({
        "setup_s": n_setups, "lat_p50_ms": len(times), "throughput_rps": len(times),
    })
    # Exact counts: must repeat for a seed.
    iterations = [_executed_iterations(first[k]) for k in sorted(first)]
    result.notes["iterations_by_rhs"] = iterations
    if not trace:
        return result

    # Traced repeat on a problem built with the traced kernel; the plain
    # one is dropped first so two 512-element geometries never coexist.
    del case, first
    gc.collect()
    rec, work = SpanRecorder(), semtrace.KernelWork()
    traced = _build(shape, semtrace.register_traced_kernel(rec, work))
    semtrace.instrument_problem(traced.problem, rec, work)
    traced.solver = rec.wrap(semtrace.SOLVE, traced.solver)
    rec.spans.clear()
    work.clear()
    t_result = RunResult()
    t_times, _, t_executed, t_first = _measure(traced, pool, seconds / 2, t_result, probe)
    result.failed += t_result.failed
    result.attempted += t_result.attempted
    result.breaches += t_result.breaches
    t_iterations = [_executed_iterations(t_first[k]) for k in sorted(t_first)]
    shared = min(len(iterations), len(t_iterations))
    if iterations[:shared] != t_iterations[:shared]:
        result.breaches.append(
            f"iteration counts changed between repetitions of one seed: "
            f"{iterations} vs {t_iterations}"
        )
    n = len(t_times)
    result.metrics.update(semtrace.layer_metrics(
        rec, work, semtrace.SOLVE, None, n, t_executed, host or {},
    ))
    # Of the first rhs of the pool, which every run solves: exact for a
    # seed however many solves the window held.
    mixed = shape.batch is not None
    result.metrics.update({
        "cg.iterations": 0.0 if mixed else float(t_iterations[0]),
        "cg.inner_iterations": float(t_iterations[0]) if mixed else 0.0,
        "cg.sweeps": float(np.max(t_first[0].sweeps)) if mixed else 0.0,
        "trace.overhead_share": statistics.median(t_times) / median - 1.0,
        "host.probe_slowdown": probe.median(),
    })
    result.spans = rec.spans
    return result
