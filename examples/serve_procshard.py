#!/usr/bin/env python
"""Process-sharded serving: K worker processes, one shared problem block,
zero-copy request/response rings.

One :class:`~repro.serve.SolveService` is one core's ceiling, and
replicas *within* one process would still cross one GIL for every
route, ticket and stat.  This demo runs the process-level tier:

1. export the serving problem's immutable arrays (geometric factors
   and their fp32 twin, gather-scatter map and multiplicities,
   coordinates, quadrature, Jacobi diagonal) into one shared-memory
   block and spin up a K=2
   :class:`~repro.serve.ProcessShardedSolveService` — each worker
   process rebuilds the problem from a picklable spec and attaches the
   SAME physical pages (the workers attest to it below); each worker
   also gets its own shared-memory slot ring: the client writes each
   rhs **directly into a ring slot**, the worker solves a read-only
   view of it and writes the solution back **in place**, and the pipe
   carries only doorbells (slot ordinals and scalar knobs),
2. route a keyed tenant stream through consistent hashing, so one
   tenant's requests meet in one worker's queue,
3. verify every result that crossed a process boundary is bit-identical
   to a sequential warm ``cg_solve`` — and a mixed-precision tail to
   ``cg_solve_mixed`` — with the audited transport copy count
   ``stats.copy_bytes == 0``,
4. close: every worker drains, the processes join, and the shared
   blocks — the problem block and the rings — are unlinked from
   ``/dev/shm``.

Run:  PYTHONPATH=src python examples/serve_procshard.py
"""

from __future__ import annotations

import os

import numpy as np

from repro import BoxMesh, PoissonProblem, ReferenceElement, cg_solve
from repro.sem import sine_manufactured
from repro.serve import ProcessShardedSolveService


def build_problem() -> tuple[PoissonProblem, list[np.ndarray]]:
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, shape=(2, 2, 2))
    problem = PoissonProblem(mesh)
    _, forcing = sine_manufactured(mesh.extent)
    b0 = problem.rhs_from_forcing(forcing)
    requests = [b0 * (1.0 + 0.25 * k) for k in range(32)]
    return problem, requests


def sequential(problem: PoissonProblem, b: np.ndarray):
    return cg_solve(
        problem.apply_A, b, precond_diag=problem.precond_diag(),
        tol=1e-10, maxiter=200, workspace=problem.workspace,
    )


def main() -> None:
    problem, requests = build_problem()
    reference = [sequential(problem, b) for b in requests]
    reference_mixed = [  # the sequential warm cg_solve_mixed
        problem.solve(b, tol=1e-10, maxiter=200, precision="mixed")
        for b in requests[:8]
    ]
    print(f"serving shape: {problem.mesh.num_elements} elements at N=3, "
          f"{problem.n_dofs} DOFs, {len(requests)} requests")

    with ProcessShardedSolveService(
        problem, workers=2, policy="tenant", max_batch=8,
        max_wait=0.002, tol=1e-10, maxiter=200,
    ) as svc:
        # 1. The sharing proof, attested by the workers themselves.
        infos = svc.worker_info()
        pids = sorted(info["pid"] for info in infos)
        blocks = {info["problem_block"] for info in infos}
        assert len(pids) == 2 and os.getpid() not in pids
        assert blocks == {svc.spec.arrays.block}
        assert len(svc.shared_blocks) == 1 + 2  # the problem + 2 rings
        for info in infos:
            assert info["g_soa_in_block"] and info["g32_soa_in_block"]
            assert not info["g_soa_writeable"]
            assert not info["g32_soa_writeable"]
        print(f"workers {pids} share one problem block "
              f"{svc.spec.arrays.block} (fp64 and fp32 geometry "
              f"read-only, zero-copy)")
        rings = [info["ring_block"] for info in infos]
        assert len(set(rings)) == 2  # one slot ring per worker
        assert all(info["ring_rhs_writeable"] is False for info in infos)
        print(f"rings {rings}: request side read-only in the workers, "
              f"core pinning (best-effort): "
              f"{[info['pinned_cpus'] for info in infos]}")

        # 2. A keyed tenant stream through consistent-hash routing.
        keys = [f"tenant-{k % 6}" for k in range(len(requests))]
        served = svc.solve_many(requests, keys=keys)
        print(f"tenant-routed: {svc.routed} across {svc.workers} worker "
              f"processes, {svc.stats.solves_per_second:.0f} solves/s "
              f"aggregate (worker clocks rebased onto this process)")

        # 3. Bit-identity across the process boundary, fp64 and mixed
        # alike, with no request payload crossing a copying hop.
        mixed = svc.solve_many(requests[:8], precision="mixed")
        for got, want in zip(served, reference):
            assert np.array_equal(got.x, want.x)
            assert got.residual_history == want.residual_history
        for got, want in zip(mixed, reference_mixed):
            assert np.array_equal(got.x, want.x)
            assert got.sweeps == want.sweeps
        assert svc.stats.copy_bytes == 0
        print("process-sharded results bit-identical to sequential solves "
              "(fp64 and mixed); copy_bytes == 0")
        shared = svc.shared_blocks
        assert set(rings) <= set(shared)

    # 4. Clean close: blocks gone from /dev/shm, nothing leaked.
    for name in shared:
        assert not os.path.exists(f"/dev/shm/{name}"), name
    print("closed: workers drained and joined, shared memory unlinked")


if __name__ == "__main__":
    main()
