#!/usr/bin/env python
"""Chaos drill: kill every worker once mid-stream, lose nothing.

``examples/serve_procshard.py`` shows the process-sharded fleet on a
good day.  This demo is the bad day, made deterministic: a seeded
:class:`~repro.serve.FaultPlan` terminates each of the K=2 worker
processes right after a planned dispatch, while a client streams
requests.  The self-healing tier has to earn its keep:

1. the reader threads detect both crashes; in-flight requests are
   transparently retried on healthy workers (solves are pure, so the
   retried results are bit-identical),
2. the supervisor respawns both workers — rebuilt from the same
   picklable spec, re-attached to the SAME shared-memory geometry —
   and re-admits them to routing,
3. every single request resolves bit-identically to a sequential warm
   ``cg_solve``; no ``WorkerCrashed`` ever reaches the client,
4. the fleet's stats confess everything: restarts, retries, and the
   health walk DEGRADED -> HEALTHY.

Run:  PYTHONPATH=src python examples/serve_chaos.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import BoxMesh, PoissonProblem, ReferenceElement, cg_solve
from repro.sem import sine_manufactured
from repro.serve import (
    FaultInjector,
    FaultPlan,
    FleetUnavailable,
    ProcessShardedSolveService,
    RestartPolicy,
    RetryPolicy,
)


def build_problem() -> tuple[PoissonProblem, list[np.ndarray]]:
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, shape=(2, 2, 2))
    problem = PoissonProblem(mesh)
    _, forcing = sine_manufactured(mesh.extent)
    b0 = problem.rhs_from_forcing(forcing)
    requests = [b0 * (1.0 + 0.25 * k) for k in range(24)]
    return problem, requests


def sequential(problem: PoissonProblem, b: np.ndarray):
    return cg_solve(
        problem.apply_A, b, precond_diag=problem.precond_diag(),
        tol=1e-10, maxiter=200, workspace=problem.workspace,
    )


def submit_with_patience(svc, b, timeout=120.0):
    """A well-behaved client: back off and resubmit on the retryable
    FleetUnavailable (every worker mid-respawn)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return svc.submit(b)
        except FleetUnavailable:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def main() -> None:
    problem, requests = build_problem()
    reference = [sequential(problem, b) for b in requests]
    print(f"chaos drill: {len(requests)} requests through K=2 workers; "
          "plan kills worker 0 after dispatch 2, worker 1 after dispatch 5")

    plan = FaultPlan.kill_each_worker_once(2, first_kill_after=2, stagger=3)
    injector = FaultInjector(plan)
    with ProcessShardedSolveService(
        problem, workers=2, policy="round-robin", max_batch=4,
        max_wait=0.002, tol=1e-10, maxiter=200,
        chaos=injector,
        retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
        restart=RestartPolicy(max_restarts=3, backoff_base=0.02),
    ) as svc:
        tickets = [submit_with_patience(svc, b) for b in requests]
        served = [t.result(timeout=120) for t in tickets]

        # 1. Both planned kills fired — this was a real drill.
        assert injector.kills_fired == 2, injector.kills_fired

        # 2. The fleet healed itself back to K healthy workers.
        deadline = time.monotonic() + 120
        while svc.health.mask() != (True, True) or svc.restarts < 2:
            assert time.monotonic() < deadline, svc.health.states
            time.sleep(0.05)
        assert svc.alive_workers == (True, True)

        # 3. Bit-identity survived both crashes (retries included).
        for got, want in zip(served, reference):
            assert np.array_equal(got.x, want.x)
            assert got.residual_history == want.residual_history

        # 4. The stats confess.
        agg = svc.stats
        assert agg.restarts == 2
        assert agg.retries >= 1
        print(f"fleet healed: {svc.restarts} respawns, {svc.retried} "
              f"transparent retries, health={[s.value for s in svc.health.states]}")
        print(f"all {len(served)} results bit-identical to sequential "
              "solves; no WorkerCrashed reached the client")

    print("closed: workers drained and joined, shared memory unlinked")


if __name__ == "__main__":
    main()
