#!/usr/bin/env python
"""Quickstart: the SEM kernel, the solver, and the FPGA accelerator.

Five minutes through the library's public API:

1. build a reference element and a small hexahedral mesh,
2. apply the paper's matrix-free Poisson operator ``Ax`` (Listing 1)
   with the production kernel every problem runs,
3. solve a Poisson problem with Jacobi-preconditioned CG on the
   allocation-free workspace hot path and verify spectral accuracy
   against a manufactured solution,
4. serve a batch of tenants: eight right-hand sides solved in one
   batched CG pass through a single warm workspace,
5. stand up a :class:`repro.serve.SolveService` — the micro-batching
   front-end that coalesces independent requests into those batched
   passes (see ``examples/serve_quickstart.py`` for the full tour),
6. run the same kernel on the simulated FPGA accelerator and read its
   cycle/bandwidth report.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AcceleratorConfig,
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
    SEMAccelerator,
    STRATIX10_GX2800,
    ax_local_listing1,
    ax_local_matmul,
    cg_solve,
    cg_solve_batched,
)
from repro.sem import geometric_factors, sine_manufactured


def main() -> None:
    # 1. Discretization: degree N = 7 (the paper's headline degree),
    #    2 x 2 x 2 elements on the unit cube.
    ref = ReferenceElement.from_degree(7)
    mesh = BoxMesh.build(ref, shape=(2, 2, 2), extent=(1.0, 1.0, 1.0))
    print(f"mesh: {mesh.num_elements} elements, "
          f"{ref.dofs_per_element} DOFs each, {mesh.n_global} global nodes")

    # 2. The matrix-free local Poisson operator — the production kernel
    #    (compiled where the host has a C compiler), checked against a
    #    literal port of the paper's Listing 1 on one element.
    geo = geometric_factors(mesh)
    rng = np.random.default_rng(42)
    u = rng.standard_normal((mesh.num_elements,) + (ref.n_points,) * 3)
    w = ax_local_matmul(ref, u, geo.g)
    assert np.allclose(ax_local_listing1(ref, u[:1], geo.g[:1]), w[:1],
                       atol=1e-11)
    print(f"Ax applied: |w|_inf = {np.abs(w).max():.3f}")

    # 3. Solve -lap(u) = f with a manufactured sine solution.  The
    #    problem's SolverWorkspace makes the CG loop allocation-free.
    #    Inside a solve the only parallelism is the BLAS's own
    #    (OPENBLAS_NUM_THREADS); across solves it is the serving fleets.
    problem = PoissonProblem(mesh)
    u_exact, forcing = sine_manufactured(mesh.extent)
    b = problem.rhs_from_forcing(forcing)
    result = cg_solve(
        problem.apply_A, b,
        precond_diag=problem.jacobi_diagonal(),
        tol=1e-12, maxiter=500,
        workspace=problem.workspace,
    )
    err = problem.l2_error(result.x, u_exact)
    print(f"CG: {result.iterations} iterations, converged={result.converged}, "
          f"L2 error = {err:.2e} (spectral accuracy at N=7)")

    # 4. Multi-tenant serving: stack eight right-hand sides and push
    #    them through ONE batched CG pass — a single warm workspace
    #    amortizes the geometry traffic and dispatch across all eight,
    #    with per-system convergence masking.
    batch = np.stack([b * (1.0 + 0.25 * k) for k in range(8)])
    batched = cg_solve_batched(
        problem.apply_A, batch,
        precond_diag=problem.jacobi_diagonal(),
        tol=1e-12, maxiter=500,
        workspace=problem.batch_workspace(8),
    )
    assert np.allclose(batched.x[0], result.x, atol=1e-9)
    print(f"batched CG: 8 systems in {batched.total_iterations} stacked "
          f"iterations, per-system iters {batched.iterations.min()}-"
          f"{batched.iterations.max()}, all converged="
          f"{batched.all_converged}")

    # 5. The serving front-end: independent requests (submitted from
    #    any thread) are dynamically coalesced into warm batched
    #    dispatches; per-request results stay bit-identical to
    #    sequential solves.
    from repro.serve import SolveService

    with SolveService(problem, max_batch=8, tol=1e-12, maxiter=500) as svc:
        served = svc.solve_many(batch)
        assert all(
            np.array_equal(served[k].x, batched.x[k]) for k in range(8)
        )
        stats = svc.stats
        print(f"SolveService: {stats.completed} requests in "
              f"{stats.batches} batched dispatch(es) "
              f"{dict(stats.batch_histogram)}, "
              f"{stats.solves_per_second:.0f} solves/s")

    # 6. The same kernel on the simulated Stratix 10 accelerator.
    acc = SEMAccelerator(AcceleratorConfig.banked(7), STRATIX10_GX2800)
    w_fpga, report = acc.run(u, geo.g)
    assert np.allclose(w_fpga, w, rtol=1e-11, atol=1e-11)
    print(
        f"FPGA (simulated): {report.gflops:.1f} GFLOP/s at "
        f"{report.dofs_per_cycle:.2f} DOF/cycle "
        f"({report.config.clock_mhz:.0f} MHz, "
        f"{report.memory.effective_bandwidth / 1e9:.1f} GB/s effective)"
    )
    big = acc.performance(4096)
    print(f"FPGA at the paper's reference size (4096 elements): "
          f"{big.gflops:.1f} GFLOP/s (paper: 109.0)")


if __name__ == "__main__":
    main()
