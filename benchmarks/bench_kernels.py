"""Real (wall-clock) kernel benchmarks of the SEM substrate.

Unlike the ``bench_table*``/``bench_fig*`` modules — which time the
*regeneration* of the paper's artifacts — these time the actual numerics
on the host running the suite: the vectorized ``Ax``, the gather-scatter
and a short CG solve.  Useful for tracking the library's own performance.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.cost import flops_per_dof
from repro.sem import (
    BoxMesh,
    GatherScatter,
    PoissonProblem,
    ReferenceElement,
    SolverWorkspace,
    ax_local_matmul,
    cg_solve,
    cg_solve_batched,
    geometric_factors,
    sine_manufactured,
)

# The seed einsum kernel is a test oracle now; it stays the baseline
# the production kernel's speedup is quoted against.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import ax_local  # noqa: E402


@pytest.mark.parametrize("n", (3, 7, 11))
def test_bench_ax_local(benchmark, n):
    """Vectorized matrix-free operator on 64 elements."""
    ref = ReferenceElement.from_degree(n)
    rng = np.random.default_rng(0)
    num_e = 64
    nx = ref.n_points
    u = rng.standard_normal((num_e, nx, nx, nx))
    g = np.abs(rng.standard_normal((num_e, 6, nx, nx, nx))) + 0.5
    out = np.empty_like(u)
    result = benchmark(ax_local, ref, u, g, out)
    assert np.all(np.isfinite(result))
    benchmark.extra_info["gflops_per_call"] = (
        flops_per_dof(n) * num_e * nx ** 3 / 1e9
    )


@pytest.mark.parametrize("kernel", ("einsum", "matmul"))
def test_bench_ax_n7_e512(benchmark, kernel):
    """The acceptance-size comparison at N=7, 512 elements.

    ``einsum`` runs the library's historical hot path (allocating, as the
    seed shipped it); ``matmul`` runs the new one (BLAS dgemm sum
    factorization, cache-blocked, warm workspace).  The new path must
    stay >= 2x faster; ``benchmarks/run_baseline.py`` records the ratio
    in ``BENCH_kernels.json``.
    """
    ref = ReferenceElement.from_degree(7)
    rng = np.random.default_rng(0)
    num_e = 512
    nx = ref.n_points
    u = rng.standard_normal((num_e, nx, nx, nx))
    g = np.abs(rng.standard_normal((num_e, 6, nx, nx, nx))) + 0.5
    out = np.empty_like(u)
    fn = ax_local_matmul if kernel == "matmul" else ax_local
    if kernel == "matmul":
        ws = SolverWorkspace(num_elements=num_e, nx=nx)
        result = benchmark(fn, ref, u, g, out, ws)
    else:
        result = benchmark(fn, ref, u, g, out)
    assert np.all(np.isfinite(result))
    benchmark.extra_info["gflops_per_call"] = (
        flops_per_dof(7) * num_e * nx ** 3 / 1e9
    )


def test_bench_ax_n7_e512_fp32(benchmark):
    """fp32 twin of the matmul acceptance bench above (same N=7, 512
    elements, same kernel) — the mixed-precision inner loop's operator.

    The sum-factorization ``Ax`` is memory-bandwidth-bound at this
    shape, so halving the bytes per DOF should roughly halve the time
    per call; ``run_baseline.py`` records the measured ratio as
    ``ax_n7_e512_fp32_speedup`` (fp64 matmul mean / fp32 mean).
    """
    ref = ReferenceElement.from_degree(7)
    rng = np.random.default_rng(0)
    num_e = 512
    nx = ref.n_points
    u = rng.standard_normal((num_e, nx, nx, nx)).astype(np.float32)
    g = (
        np.abs(rng.standard_normal((num_e, 6, nx, nx, nx))) + 0.5
    ).astype(np.float32)
    out = np.empty_like(u)
    ws = SolverWorkspace(num_elements=num_e, nx=nx, dtype=np.float32)
    result = benchmark(ax_local_matmul, ref, u, g, out, ws)
    assert result.dtype == np.float32
    assert np.all(np.isfinite(result))
    benchmark.extra_info["gflops_per_call"] = (
        flops_per_dof(7) * num_e * nx ** 3 / 1e9
    )


@pytest.mark.parametrize("n", (3, 7, 11))
def test_bench_ax_local_matmul(benchmark, n):
    """BLAS-backed matrix-free operator on 64 elements (vs einsum above)."""
    from repro.sem import ax_local_matmul

    ref = ReferenceElement.from_degree(n)
    rng = np.random.default_rng(0)
    num_e = 64
    nx = ref.n_points
    u = rng.standard_normal((num_e, nx, nx, nx))
    g = np.abs(rng.standard_normal((num_e, 6, nx, nx, nx))) + 0.5
    ws = SolverWorkspace(num_elements=num_e, nx=nx)
    out = np.empty_like(u)
    result = benchmark(ax_local_matmul, ref, u, g, out, ws)
    assert np.all(np.isfinite(result))
    benchmark.extra_info["gflops_per_call"] = (
        flops_per_dof(n) * num_e * nx ** 3 / 1e9
    )


def _serving_problem(n=3, shape=(2, 2, 2), batch=8):
    """The multi-tenant serving case: B small Poisson systems, one mesh."""
    ref = ReferenceElement.from_degree(n)
    mesh = BoxMesh.build(ref, shape)
    prob = PoissonProblem(mesh, ax_backend="matmul")
    _, forcing = sine_manufactured(mesh.extent)
    b0 = prob.rhs_from_forcing(forcing)
    diag = prob.jacobi_diagonal()
    # Distinct per-tenant right-hand sides sharing the discretization.
    bs = np.stack([b0 * (1.0 + 0.3 * k) for k in range(batch)])
    return prob, bs, diag


def test_bench_cg_batched_b8(benchmark):
    """Ten CG iterations of B=8 stacked systems through one warm
    batched workspace (N=3, 8 elements — the serving shape)."""
    prob, bs, diag = _serving_problem()
    bws = prob.batch_workspace(bs.shape[0])

    def run():
        return cg_solve_batched(
            prob.apply_A, bs, precond_diag=diag, tol=0.0, maxiter=10,
            workspace=bws,
        )

    result = benchmark(run)
    assert result.total_iterations == 10


def test_bench_cg_sequential_b8(benchmark):
    """The same eight systems solved one at a time through the warm
    unbatched workspace — the baseline the batched path must beat."""
    prob, bs, diag = _serving_problem()

    def run():
        return [
            cg_solve(
                prob.apply_A, bs[k], precond_diag=diag, tol=0.0,
                maxiter=10, workspace=prob.workspace,
            )
            for k in range(bs.shape[0])
        ]

    results = benchmark(run)
    assert all(r.iterations == 10 for r in results)


def test_bench_serve_throughput_b8(benchmark):
    """Eight independent requests through SolveService (max_batch=8):
    the end-to-end serving number — micro-batching overhead included —
    that must sustain >= 1.5x the solves/s of the sequential baseline
    above (``serve_throughput`` in BENCH_kernels.json)."""
    from repro.serve import SolveService

    prob, bs, _ = _serving_problem()
    svc = SolveService(prob, max_batch=8, tol=0.0, maxiter=10)

    def run():
        return svc.solve_many(bs)

    results = benchmark(run)
    assert all(r.iterations == 10 for r in results)
    # run_baseline.py derives solves/s from this, not a hardcoded count.
    benchmark.extra_info["requests_per_round"] = int(bs.shape[0])
    svc.close()


def test_bench_serve_procshard_throughput_b16(benchmark):
    """Sixteen independent requests through a K=2
    ProcessShardedSolveService (round-robin, max_batch=8, default
    construction): the process-level horizontally-scaled serving number.
    Request payloads are staged straight into per-worker shared-memory
    slot rings, solutions written back in place, pipes carry doorbells
    only (``stats.copy_bytes == 0``, asserted below).

    On a host where the two worker processes timeshare the cores with
    the client, every cross-process wake-up still costs a context
    switch (requests travel in one doorbell block per worker and
    results come back in coalesced ``done_block`` sweeps), so the fleet
    cannot beat a single in-process service — the gate in
    ``run_baseline.py`` only requires >= 0.6x.  On a multi-core host
    each worker owns a core including its Python dispatch (the ceiling
    in-process replicas could not pass), and the ratio is tracked, not
    gated
    (``serve_procshard_vs_single_speedup`` in ``BENCH_kernels.json``)."""
    from repro.serve import ProcessShardedSolveService

    prob, bs, _ = _serving_problem(batch=16)
    svc = ProcessShardedSolveService(
        prob, workers=2, policy="round-robin", max_batch=8,
        max_wait=0.05, tol=0.0, maxiter=10,
    )

    def run():
        return svc.solve_many(bs)

    results = benchmark(run)
    assert all(r.iterations == 10 for r in results)
    assert svc.stats.copy_bytes == 0
    benchmark.extra_info["requests_per_round"] = int(bs.shape[0])
    benchmark.extra_info["workers"] = 2
    svc.close()


def test_bench_serve_crash_recovery(benchmark):
    """Seconds from killing one of K=2 worker processes to the fleet
    fully healed AND a full request block served again — the price of a
    crash under supervision (``serve_crash_recovery_s`` in
    ``BENCH_kernels.json``).

    One-shot by construction (``pedantic(rounds=1)``): each measurement
    needs a fresh corpse, and respawn cost is dominated by the spawned
    interpreter re-importing numpy — repeating it buys noise, not
    precision.  Not a ``*_speedup`` key, so the --compare gate tracks
    it without failing the build on a slow host.
    """
    import time

    from repro.serve import (
        ProcessShardedSolveService,
        RestartPolicy,
        RetryPolicy,
    )

    prob, bs, _ = _serving_problem()
    svc = ProcessShardedSolveService(
        prob, workers=2, policy="round-robin", max_batch=8,
        max_wait=0.05, tol=0.0, maxiter=10,
        retry=RetryPolicy(max_attempts=4, backoff_base=0.005),
        restart=RestartPolicy(max_restarts=2, backoff_base=0.005),
    )
    svc.solve_many(bs)  # warm both workers before the drill

    def crash_and_recover():
        svc._workers[0].process.terminate()
        deadline = time.monotonic() + 120.0
        while not (
            svc.restarts >= 1 and svc.health.mask() == (True, True)
        ):
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"fleet never healed: {svc.health.states}"
                )
            time.sleep(0.002)
        return svc.solve_many(bs)

    results = benchmark.pedantic(crash_and_recover, rounds=1, iterations=1)
    assert all(r.iterations == 10 for r in results)
    assert svc.restarts >= 1
    benchmark.extra_info["workers"] = 2
    benchmark.extra_info["requests_per_round"] = int(bs.shape[0])
    svc.close()


def test_bench_serve_gateway_b8(benchmark):
    """The same eight-request stream as ``serve_throughput_b8``, but
    through the multi-tenant gateway: authenticate the tenant's bearer
    token, run the admission pipeline (priority clamp, rate limit,
    shed check, quota charge), hop through the asyncio facade, and
    await the futures.  The ratio against the direct-submit benchmark
    is ``serve_gateway_overhead`` in ``BENCH_kernels.json`` —
    floor-gated in ``run_baseline.py``: the front door must keep at
    least half the direct solves/s at this small serving shape (where
    per-request bookkeeping is largest relative to the ~ms solves)."""
    import asyncio

    from repro.serve import Gateway, SolveService, TenantRegistry

    prob, bs, _ = _serving_problem()
    svc = SolveService(
        prob, max_batch=8, max_wait=0.002, tol=0.0, maxiter=10,
        background=True,
    )
    registry = TenantRegistry()
    tenant = registry.provision("bench")
    gateway = Gateway(svc, registry)
    loop = asyncio.new_event_loop()

    async def stream():
        return await asyncio.gather(*[
            gateway.solve(tenant.token, b, maxiter=10) for b in bs
        ])

    def run():
        return loop.run_until_complete(stream())

    results = benchmark(run)
    assert all(r.iterations == 10 for r in results)
    benchmark.extra_info["requests_per_round"] = int(bs.shape[0])
    loop.run_until_complete(gateway.aclose())
    loop.close()


def test_bench_serve_costaware_tail_p99(benchmark):
    """Tail latency of the cheap tenant class under cost-predicted vs
    depth-only routing, same K=2 fleet, same seeded heterogeneous mix.

    Each wave submits 1 tight request (40 iterations) and 3 loose ones
    (5 iterations) to a K=2 process fleet with ``max_batch=4``.
    Depth-only routing counts *requests*, so a loose request regularly
    lands in the tight request's micro-batch and pays the batch's
    max-member cost; the cost router charges each replica the model's
    *predicted iterations*, so the loose class congregates away from
    the tight one and its batches stay homogeneous.  The measured p99
    of the loose class under each policy goes to ``extra_info``;
    ``run_baseline.py`` derives ``serve_costaware_tail_p99_ratio``
    (depth-only p99 / cost-aware p99, >1 means the cost model pays).
    One-shot (``pedantic(rounds=1)``): the drill is self-timing and
    repeats internally — benchmark rounds would just rerun both fleets.
    """
    import time as _time

    from repro.serve import (
        CostAwareRouter,
        CostModel,
        ProcessShardedSolveService,
    )

    prob, bs, _ = _serving_problem()
    TIGHT_ITERS, LOOSE_ITERS, WAVES = 40, 5, 8

    def drill(policy):
        svc = ProcessShardedSolveService(
            prob, workers=2, policy=policy, max_batch=4,
            max_wait=0.003, tol=0.0, maxiter=10,
        )
        loose_lat = []
        try:
            for w in range(WAVES):
                tickets = [svc.submit(
                    bs[w % 8], maxiter=TIGHT_ITERS, key="tight",
                )]
                for j in range(3):
                    tk = svc.submit(
                        bs[(w + j + 1) % 8], maxiter=LOOSE_ITERS,
                        key="loose",
                    )
                    tk.add_done_callback(
                        lambda t, s=_time.monotonic():
                        loose_lat.append(_time.monotonic() - s)
                    )
                    tickets.append(tk)
                for tk in tickets:
                    tk.result(timeout=60)
        finally:
            svc.close()
        lat = sorted(loose_lat)
        return lat[max(int(0.99 * len(lat)) - 1, 0)]

    def cost_router():
        # Warm-started the way a long-running gateway would be (its
        # CostModel persists across fleet restarts via from_stats).
        model = CostModel()
        model.observe("tight", 0.0, None, TIGHT_ITERS)
        model.observe("loose", 0.0, None, LOOSE_ITERS)
        return CostAwareRouter(2, model=model)

    def both():
        return drill("least-loaded"), drill(cost_router())

    depth_p99, cost_p99 = benchmark.pedantic(both, rounds=1, iterations=1)
    benchmark.extra_info["depth_only_loose_p99_s"] = depth_p99
    benchmark.extra_info["costaware_loose_p99_s"] = cost_p99
    benchmark.extra_info["waves"] = WAVES


def _refine_problem():
    """The mixed-refinement gate case: N=7, 512 elements, generic rhs.

    The rhs is interior-masked white noise — the same generic data every
    kernel bench here uses, and the shape the paper calls
    bandwidth-bound.  (A smooth manufactured rhs would hand the
    continuous fp64 baseline a superlinear head start that any
    restarted method — fp64 or fp32 — forfeits, turning the bench into
    a measurement of rhs smoothness rather than of arithmetic width.)
    """
    ref = ReferenceElement.from_degree(7)
    mesh = BoxMesh.build(ref, (8, 8, 8))
    prob = PoissonProblem(mesh, ax_backend="matmul")
    rng = np.random.default_rng(0)
    b = rng.standard_normal(prob.n_dofs) * prob.interior
    return prob, b


#: Tolerance of the refinement-gate benchmarks: a realistic engineering
#: tolerance the mixed path reaches in two fp32 sweeps at this shape.
REFINE_TOL: float = 1e-8


def test_bench_cg_fp64_n7_e512(benchmark):
    """Warm fp64 Jacobi-CG to 1e-8 at the bandwidth-bound shape — the
    baseline the mixed-precision gate divides by
    (``cg_mixed_refine_speedup`` in ``BENCH_kernels.json``)."""
    prob, b = _refine_problem()
    diag = prob.precond_diag()

    def run():
        return cg_solve(
            prob.apply_A, b, precond_diag=diag, tol=REFINE_TOL,
            maxiter=2000, workspace=prob.workspace,
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.converged
    benchmark.extra_info["iterations"] = int(result.iterations)


def test_bench_cg_mixed_refine(benchmark):
    """Mixed-precision refinement to the same fp64 1e-8 tolerance: fp32
    inner Jacobi-CG sweeps + fp64 true-residual refinement, warm fp64
    and fp32 workspaces.

    Must sustain >= 1.3x the warm fp64 solve above
    (``cg_mixed_refine_speedup``, gated in ``run_baseline.py``); the
    fp32 inner iterations stream half the bytes per DOF through the
    same sum-factorization kernels, which is the entire speedup.
    Convergence is judged on the fp64 *true* residual, so the result
    meets the identical tolerance contract as the baseline.
    """
    from repro.sem.cg import cg_solve_mixed

    prob, b = _refine_problem()
    diag = prob.precond_diag()
    ws32 = prob.batch_workspace(1, dtype=np.float32)

    def run():
        return cg_solve_mixed(
            prob.apply_A, prob.apply_A32, b, precond_diag=diag,
            tol=REFINE_TOL, maxiter=2000, workspace=prob.workspace,
            workspace32=ws32,
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.converged
    # The mixed iterate satisfies the same fp64 tolerance the baseline
    # was asked for — checked on the recomputed true residual.
    true_res = float(np.linalg.norm(b - prob.apply_A(result.x)))
    assert true_res <= REFINE_TOL * float(np.linalg.norm(b))
    benchmark.extra_info["inner_iterations"] = int(result.iterations)
    benchmark.extra_info["sweeps"] = int(result.sweeps)


def test_bench_gather_scatter(benchmark):
    """Direct-stiffness round trip on a 4x4x4 mesh at N=7."""
    ref = ReferenceElement.from_degree(7)
    mesh = BoxMesh.build(ref, (4, 4, 4))
    gs = GatherScatter.from_mesh(mesh)
    rng = np.random.default_rng(0)
    local = rng.standard_normal(mesh.l2g.shape)
    result = benchmark(gs.gs, local)
    assert result.shape == local.shape


def test_bench_cg_solve(benchmark):
    """Ten CG iterations of the Poisson problem at N=7, 8 elements.

    ``cg_solve`` is the shared ``(B, n)`` CG loop at ``B = 1`` (a 1-D
    system lifted to a one-row block, operator handed 1-D views), so
    this times that loop's solo entry, workspace-free over the einsum
    kernel (``cg10_einsum_s``, numerator of ``cg10_workspace_speedup``)."""
    ref = ReferenceElement.from_degree(7)
    mesh = BoxMesh.build(ref, (2, 2, 2))
    prob = PoissonProblem(mesh, ax_backend=ax_local)
    _, forcing = sine_manufactured(mesh.extent)
    b = prob.rhs_from_forcing(forcing)
    diag = prob.jacobi_diagonal()

    def run():
        return cg_solve(prob.apply_A, b, precond_diag=diag, tol=0.0, maxiter=10)

    result = benchmark(run)
    assert result.iterations == 10


def test_bench_cg_solve_workspace(benchmark):
    """Allocation-free CG: matmul kernel + SolverWorkspace, N=7, 8 elements.

    The shared CG loop at ``B = 1`` on a warm workspace
    (``cg10_workspace_matmul_s``, denominator of
    ``cg10_workspace_speedup``).  Ten iterations at 4 096 DOFs is where
    the loop's per-iteration ``(B,)``-array bookkeeping — cost a solo
    Python-float loop did not pay — would show first."""
    ref = ReferenceElement.from_degree(7)
    mesh = BoxMesh.build(ref, (2, 2, 2))
    prob = PoissonProblem(mesh, ax_backend="matmul")
    _, forcing = sine_manufactured(mesh.extent)
    b = prob.rhs_from_forcing(forcing)
    diag = prob.jacobi_diagonal()

    def run():
        return cg_solve(
            prob.apply_A, b, precond_diag=diag, tol=0.0, maxiter=10,
            workspace=prob.workspace,
        )

    result = benchmark(run)
    assert result.iterations == 10


def test_bench_gather(benchmark):
    """Zero-fill + np.add.at gather on a 4x4x4 mesh at N=7."""
    ref = ReferenceElement.from_degree(7)
    mesh = BoxMesh.build(ref, (4, 4, 4))
    gs = GatherScatter.from_mesh(mesh)
    rng = np.random.default_rng(0)
    local = rng.standard_normal(mesh.l2g.shape)
    out = np.empty(mesh.n_global)
    result = benchmark(gs.gather, local, out)
    assert result is out


def test_bench_gather_scatter_dot(benchmark):
    """Nekbone glsc3 inner product (cached inverse multiplicity), N=7."""
    ref = ReferenceElement.from_degree(7)
    mesh = BoxMesh.build(ref, (4, 4, 4))
    gs = GatherScatter.from_mesh(mesh)
    rng = np.random.default_rng(0)
    a = rng.standard_normal(mesh.l2g.shape)
    b = rng.standard_normal(mesh.l2g.shape)
    result = benchmark(gs.dot, a, b)
    assert np.isfinite(result)


def test_bench_geometric_factors(benchmark):
    """Spectral geometry computation on a curved 3x3x3 mesh at N=7."""
    ref = ReferenceElement.from_degree(7)
    mesh = BoxMesh.build(ref, (3, 3, 3)).deform(
        lambda x, y, z: (x + 0.03 * np.sin(np.pi * y), y, z + 0.02 * np.sin(np.pi * x))
    )
    geo = benchmark(geometric_factors, mesh)
    assert np.all(geo.jac > 0)


def test_bench_mesh_build(benchmark):
    """Mesh construction (coordinates + global numbering), 8x8x8 at N=7."""
    ref = ReferenceElement.from_degree(7)
    mesh = benchmark(BoxMesh.build, ref, (8, 8, 8))
    assert mesh.num_elements == 512


def test_bench_accelerator_functional_run(benchmark):
    """Functional accelerator execution (numerics + cycle report)."""
    from repro.core.accel import AcceleratorConfig, SEMAccelerator
    from repro.hardware.fpga import STRATIX10_GX2800

    ref = ReferenceElement.from_degree(7)
    mesh = BoxMesh.build(ref, (2, 2, 2))
    geo = geometric_factors(mesh)
    rng = np.random.default_rng(1)
    u = rng.standard_normal((8, 8, 8, 8))
    acc = SEMAccelerator(AcceleratorConfig.banked(7), STRATIX10_GX2800)
    w, report = benchmark(acc.run, u, geo.g)
    assert report.num_elements == 8
    assert np.all(np.isfinite(w))


def test_bench_listing1_reference(benchmark):
    """The scalar Listing-1 port (ground truth; intentionally slow) on
    one N=3 element — tracked so regressions in the reference path are
    visible too."""
    from repro.sem import ax_local_listing1

    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (1, 1, 1))
    geo = geometric_factors(mesh)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((1, 4, 4, 4))
    w = benchmark(ax_local_listing1, ref, u, geo.g)
    assert np.all(np.isfinite(w))
