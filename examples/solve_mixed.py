#!/usr/bin/env python
"""Mixed-precision refinement: fp32 inner sweeps, fp64 answers.

The SEM operator is bandwidth-bound, so streaming fp32 geometry and
fields is worth ~1.8x on the kernel alone — *if* the solver still
delivers fp64 accuracy.  ``cg_solve_mixed`` does that with classical
iterative refinement: each sweep solves the correction system with a
full fp32 Jacobi-CG (fp64-accumulated dot products), then updates the
iterate and re-checks the **true fp64 residual** against the same
``tol * ||b||`` criterion the plain fp64 solver uses.

This demo:

1. builds a deformed-box Poisson problem (non-constant geometric
   factors, so fp32 quantization actually gets exercised),
2. solves the same right-hand side with warm fp64 CG and with mixed
   refinement, comparing wall time, iterations and true residuals,
3. serves mixed and fp64 requests side by side through a
   ``SolveService`` (one micro-batch, split into per-precision
   dispatch groups) and asserts the fp64 results stayed bit-identical
   while every mixed result meets the fp64 tolerance.

Run:  PYTHONPATH=src python examples/solve_mixed.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import BoxMesh, PoissonProblem, ReferenceElement, cg_solve
from repro.sem import sine_manufactured
from repro.sem.cg import cg_solve_mixed
from repro.serve import SolveService

TOL = 1e-10


def main() -> None:
    # 1. A warped box: constant-coefficient shortcuts don't apply.
    ref = ReferenceElement.from_degree(5)
    mesh = BoxMesh.build(ref, shape=(3, 3, 3)).deform(
        lambda x, y, z: (
            x + 0.04 * np.sin(np.pi * x) * np.sin(np.pi * y),
            y + 0.04 * np.sin(np.pi * y) * np.sin(np.pi * z),
            z + 0.04 * np.sin(np.pi * z) * np.sin(np.pi * x),
        )
    )
    problem = PoissonProblem(mesh)
    _, forcing = sine_manufactured(mesh.extent)
    b = problem.rhs_from_forcing(forcing)
    b_norm = np.linalg.norm(b)
    print(f"deformed box: {mesh.num_elements} elements at N=5, "
          f"{problem.n_dofs} DOFs, tol={TOL:g}")

    ws32 = problem.batch_workspace(1, dtype=np.float32)

    # Warm both paths (twin casts + first-touch allocations).
    cg_solve(problem.apply_A, b, precond_diag=problem.precond_diag(),
             tol=TOL, maxiter=50, workspace=problem.workspace)
    cg_solve_mixed(problem.apply_A, problem.apply_A32, b,
                   precond_diag=problem.precond_diag(), tol=TOL,
                   maxiter=50, workspace=problem.workspace,
                   workspace32=ws32)

    # 2. Warm fp64 vs warm mixed on the same system.
    t0 = time.perf_counter()
    fp64 = cg_solve(
        problem.apply_A, b, precond_diag=problem.precond_diag(),
        tol=TOL, maxiter=500, workspace=problem.workspace,
    )
    t_fp64 = time.perf_counter() - t0

    t0 = time.perf_counter()
    mixed = cg_solve_mixed(
        problem.apply_A, problem.apply_A32, b,
        precond_diag=problem.precond_diag(), tol=TOL, maxiter=500,
        workspace=problem.workspace, workspace32=ws32,
    )
    t_mixed = time.perf_counter() - t0

    res_fp64 = np.linalg.norm(b - problem.apply_A(fp64.x))
    res_mixed = np.linalg.norm(b - problem.apply_A(mixed.x))
    assert fp64.converged and mixed.converged
    assert res_mixed <= TOL * b_norm, "mixed missed the fp64 tolerance"
    print(f"fp64 : {fp64.iterations:3d} iterations            "
          f"{t_fp64 * 1e3:7.2f} ms   true residual {res_fp64:.3e}")
    print(f"mixed: {mixed.iterations:3d} fp32 iterations in "
          f"{mixed.sweeps} sweeps {t_mixed * 1e3:7.2f} ms   "
          f"true residual {res_mixed:.3e}")
    print(f"inner iterations per sweep: {mixed.inner_iterations}")

    # 3. Both precisions through one serving front-end.
    bank = [b * (1.0 + 0.25 * k) for k in range(8)]
    with SolveService(problem, max_batch=8, tol=TOL, maxiter=500) as svc:
        tickets = [
            svc.submit(rhs, precision="mixed" if k % 2 else "fp64")
            for k, rhs in enumerate(bank)
        ]
        svc.flush()
        results = [t.result(timeout=120) for t in tickets]
        hist = svc.stats.batch_histogram

    for k, (rhs, got) in enumerate(zip(bank, results)):
        assert got.converged
        if k % 2:  # mixed: fp64 true-residual contract
            true = np.linalg.norm(rhs - problem.apply_A(got.x))
            assert true <= TOL * np.linalg.norm(rhs)
            assert got.sweeps >= 1
        else:  # fp64: bit-identical to the warm sequential solve
            want = cg_solve(
                problem.apply_A, rhs,
                precond_diag=problem.precond_diag(), tol=TOL,
                maxiter=500, workspace=problem.workspace,
            )
            assert np.array_equal(got.x, want.x)
    print(f"served {len(bank)} requests (alternating precisions), "
          f"batch histogram {hist}")
    print("fp64 results bit-identical; every mixed result met the "
          "fp64 true-residual tolerance")


if __name__ == "__main__":
    main()
