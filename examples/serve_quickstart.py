#!/usr/bin/env python
"""Serving quickstart: micro-batched solves from concurrent clients.

The repo's batched CG primitive solves ``B`` stacked right-hand sides
through one warm workspace ~2x faster than ``B`` sequential solves at
small tenant shapes — but a real serving workload arrives as
*independent requests*, not pre-stacked blocks.  ``repro.serve`` closes
that gap: a :class:`~repro.serve.SolveService` coalesces requests into
batched dispatches dynamically.

This demo:

1. builds the N=3 / E=8 serving-shape Poisson problem,
2. solves a burst of requests through the synchronous front-end and
   compares wall time against sequential warm solves,
3. serves four concurrent client threads through the background
   dispatcher (per-request tolerances included) and prints the service
   stats — batch-size histogram, queue depth, solves/s,
4. verifies every served result is bit-identical to a sequential solve.

Run:  PYTHONPATH=src python examples/serve_quickstart.py
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import BoxMesh, PoissonProblem, ReferenceElement, cg_solve
from repro.serve import SolveService
from repro.sem import sine_manufactured


def main() -> None:
    # 1. The serving shape: many small tenant problems on one mesh.
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, shape=(2, 2, 2))
    problem = PoissonProblem(mesh)
    _, forcing = sine_manufactured(mesh.extent)
    b0 = problem.rhs_from_forcing(forcing)
    requests = [b0 * (1.0 + 0.25 * k) for k in range(32)]
    print(f"serving shape: {mesh.num_elements} elements at N=3, "
          f"{problem.n_dofs} DOFs, {len(requests)} requests")

    # Warm both paths (first-touch allocations out of the timing).
    cg_solve(problem.apply_A, b0, precond_diag=problem.precond_diag(),
             tol=1e-10, maxiter=50, workspace=problem.workspace)

    # 2. Scripted burst through the synchronous front-end.
    with SolveService(problem, max_batch=8, tol=1e-10, maxiter=200) as svc:
        svc.solve_many(requests[:8])  # warm the batch-8 workspace
        t0 = time.perf_counter()
        served = svc.solve_many(requests)
        t_serve = time.perf_counter() - t0

        t0 = time.perf_counter()
        sequential = [
            cg_solve(problem.apply_A, b,
                     precond_diag=problem.precond_diag(),
                     tol=1e-10, maxiter=200, workspace=problem.workspace)
            for b in requests
        ]
        t_seq = time.perf_counter() - t0
        print(f"burst of {len(requests)}: service {t_serve * 1e3:.1f} ms "
              f"vs sequential {t_seq * 1e3:.1f} ms "
              f"({t_seq / t_serve:.2f}x, batches "
              f"{svc.stats.batch_histogram})")

    # 4a. Bit-identical: batching is invisible to the numerics.
    for got, want in zip(served, sequential):
        assert np.array_equal(got.x, want.x)
        assert got.iterations == want.iterations
        assert got.residual_history == want.residual_history
    print("served results bit-identical to sequential solves")

    # 3. Concurrent clients against the background dispatcher.
    outcomes: dict[int, object] = {}
    with SolveService(
        problem, max_batch=8, max_wait=0.002, background=True,
    ) as svc:
        def client(cid: int) -> None:
            tol = 10.0 ** (-6 - cid)  # heterogeneous per-request tol
            for j in range(8):
                ticket = svc.submit(requests[(cid * 8 + j) % 32], tol=tol)
                outcomes[cid * 8 + j] = (tol, ticket.result(timeout=60))

        clients = [
            threading.Thread(target=client, args=(cid,)) for cid in range(4)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
        stats = svc.stats
    print(f"background: {stats.completed} solves from 4 clients, "
          f"{stats.solves_per_second:.0f} solves/s, "
          f"mean batch {stats.mean_batch_size:.1f}, "
          f"max queue {stats.max_queue_depth}")
    print(f"batch histogram: {dict(sorted(stats.batch_histogram.items()))}")

    # 4b. Heterogeneous tolerances still match their sequential twins.
    for k, (tol, got) in outcomes.items():
        want = cg_solve(
            problem.apply_A, requests[k % 32],
            precond_diag=problem.precond_diag(), tol=tol, maxiter=1000,
            workspace=problem.workspace,
        )
        assert np.array_equal(got.x, want.x)
    print("concurrent (mixed-tol) results bit-identical too")


if __name__ == "__main__":
    main()
