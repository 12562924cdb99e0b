"""Timing proxies around the public entry points of the ``sem`` layers,
and the per-layer figures derived from their spans.

Nothing in ``src/repro`` is instrumented: the traced ``Ax`` kernel goes
through ``register_ax_kernel``, the gather-scatter is a delegating
proxy assigned to ``problem.gs``, and the operator the solver receives
is a wrapper around ``problem.apply_A`` — all three are things any
caller of the library may do.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost import flops_per_dof
from repro.sem.kernels import get_ax_kernel, register_ax_kernel

from benchmarks.e2e.harness import SpanRecorder, self_time_by_name

#: Registry name of the traced kernel (a thin wrapper over "matmul").
TRACED_KERNEL: str = "e2e-traced-matmul"

#: Span names; a layer is a module of ``repro.sem``.
AX, SCATTER, GATHER = "kernels.ax", "gather_scatter.scatter", "gather_scatter.gather"
APPLY, SOLVE = "poisson.apply", "cg.solve"


class KernelWork:
    """Operation and computed-byte totals of the traced ``Ax`` calls."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.flops = 0.0
        self.bytes = 0.0
        self.gs_bytes = 0.0


def register_traced_kernel(rec: SpanRecorder, work: KernelWork) -> str:
    """Register the traced twin of the ``matmul`` kernel; returns its
    registry name for ``PoissonProblem(ax_backend=...)``."""
    inner = get_ax_kernel("matmul")

    def ax_traced(ref, u, g, out=None, workspace=None):
        token = rec.begin(AX)
        try:
            return inner(ref, u, g, out=out, workspace=workspace)
        finally:
            rec.finish(token)
            stacked = u.shape[0] if u.ndim == 5 else 1
            work.flops += flops_per_dof(ref.degree) * u.size
            # Computed, not measured: u in and w out per system, the six
            # geometric factors once per element block (the stacked
            # kernel sweeps all systems while they stay cache-resident).
            # 64 B/DOF in fp64 and 32 B/DOF in fp32 for one system.
            work.bytes += u.itemsize * (2 * u.size + 6 * u.size // stacked)

    register_ax_kernel(TRACED_KERNEL, ax_traced, overwrite=True)
    return TRACED_KERNEL


class TracedGatherScatter:
    """Delegating proxy around a ``GatherScatter``: spans around
    ``scatter`` / ``gather``, everything else passed through."""

    def __init__(self, inner, rec: SpanRecorder, work: KernelWork) -> None:
        self._inner = inner
        self._rec = rec
        self._work = work
        self._twins: dict[str, "TracedGatherScatter"] = {}

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _count(self, global_vec, local) -> None:
        # Computed bytes: the values read and written plus the int64
        # index of every local node.
        self._work.gs_bytes += (
            global_vec.size * global_vec.itemsize
            + local.size * (local.itemsize + 8)
        )

    def scatter(self, global_vec, out=None):
        token = self._rec.begin(SCATTER)
        try:
            local = self._inner.scatter(global_vec, out=out)
        finally:
            self._rec.finish(token)
        self._count(global_vec, local)
        return local

    def gather(self, local, out=None):
        token = self._rec.begin(GATHER)
        try:
            global_vec = self._inner.gather(local, out=out)
        finally:
            self._rec.finish(token)
        self._count(global_vec, local)
        return global_vec

    def as_dtype(self, dtype):
        twin = self._inner.as_dtype(dtype)
        if twin is self._inner:
            return self
        key = np.dtype(dtype).str
        if key not in self._twins:
            self._twins[key] = TracedGatherScatter(twin, self._rec, self._work)
        return self._twins[key]


def traced_operator(rec: SpanRecorder, apply):
    """An operator callback with a span around every application.  The
    explicit ``out=`` keeps the solver's allocation-free path (it probes
    the callback's signature for it)."""

    def operator(u, out=None):
        token = rec.begin(APPLY)
        try:
            return apply(u, out=out)
        finally:
            rec.finish(token)

    return operator


def instrument_problem(problem, rec: SpanRecorder, work: KernelWork) -> None:
    """Install the gather-scatter proxy and the operator wrappers on a
    problem built with the traced kernel."""
    problem.gs = TracedGatherScatter(problem.gs, rec, work)
    problem.apply_A = traced_operator(rec, problem.apply_A)
    problem.apply_A32 = traced_operator(rec, problem.apply_A32)


def layer_metrics(
    rec: SpanRecorder,
    work: KernelWork,
    root_name: str,
    solve_seconds: float | None,
    solves: int,
    iterations: int,
    host: dict[str, float],
) -> dict[str, float]:
    """``kernels.*``, ``gather_scatter.*``, ``poisson.*`` and ``cg.*``
    from the spans of the traced solves.

    ``root_name`` is the outermost span of a solve the benchmark could
    put a proxy around (``cg.solve`` where it calls the solver itself,
    ``poisson.apply`` where a service does); ``solve_seconds`` is the
    time inside solves when a layer publishes it (a service's
    ``busy_seconds``), else the root spans' total.
    """
    seconds, calls, root_seconds = self_time_by_name(rec.spans, root_name)
    total = root_seconds if solve_seconds is None else solve_seconds
    ax_s, ax_n = seconds.get(AX, 0.0), calls.get(AX, 0)
    sc_s, sc_n = seconds.get(SCATTER, 0.0), calls.get(SCATTER, 0)
    ga_s, ga_n = seconds.get(GATHER, 0.0), calls.get(GATHER, 0)
    ap_s, ap_n = seconds.get(APPLY, 0.0), calls.get(APPLY, 0)
    cg_self = total - ax_s - sc_s - ga_s - ap_s
    out = {
        "kernels.ax_s": ax_s / max(ax_n, 1),
        "kernels.ax_calls": float(ax_n),
        "kernels.ax_share": ax_s / total,
        "kernels.ax_gflops": work.flops / ax_s / 1e9 if ax_s else 0.0,
        "kernels.ax_gbps_computed": work.bytes / ax_s / 1e9 if ax_s else 0.0,
        "kernels.ax_ops_per_byte": work.flops / work.bytes if work.bytes else 0.0,
        "gather_scatter.scatter_s": sc_s / max(sc_n, 1),
        "gather_scatter.gather_s": ga_s / max(ga_n, 1),
        "gather_scatter.share": (sc_s + ga_s) / total,
        "gather_scatter.gbps_computed": (
            work.gs_bytes / (sc_s + ga_s) / 1e9 if sc_s + ga_s else 0.0
        ),
        "poisson.apply_self_s": ap_s / max(ap_n, 1),
        "poisson.apply_share": ap_s / total,
        "poisson.apply_calls": float(ap_n),
        "cg.self_s": cg_self / max(solves, 1),
        "cg.self_share": cg_self / total,
        "cg.iter_s": total / max(iterations, 1),
    }
    # The roofline ratio is only stated against ceilings measured in
    # this run with arrays that left the cache.
    if not host.get("host.triad_in_cache") and out["kernels.ax_ops_per_byte"]:
        bound = min(
            host["host.dgemm_gflops"],
            host["host.triad_gbps"] * out["kernels.ax_ops_per_byte"],
        )
        out["kernels.ax_roofline_frac"] = out["kernels.ax_gflops"] / bound
    return out
